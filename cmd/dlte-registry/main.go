// Command dlte-registry runs the global dLTE registry (paper §4.3) as
// a real TCP server: the open directory where access points publish
// their location/band/mode records for peer discovery, and where
// subscribers publish open-SIM keys (§4.2).
//
// Usage:
//
//	dlte-registry -listen :8400
package main

import (
	"flag"
	"log"
	"net"

	"dlte/internal/registry"
)

func main() {
	listen := flag.String("listen", ":8400", "TCP listen address")
	flag.Parse()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("dlte-registry: %v", err)
	}
	log.Printf("dlte-registry: open registry listening on %s", l.Addr())
	srv := registry.NewServer(registry.NewStore())
	for {
		c, err := l.Accept()
		if err != nil {
			log.Fatalf("dlte-registry: %v", err)
		}
		go srv.ServeConn(c)
	}
}
