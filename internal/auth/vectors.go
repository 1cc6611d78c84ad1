package auth

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
)

// Errors surfaced by AKA verification.
var (
	// ErrMACFailure means AUTN's MAC-A did not verify: the network
	// does not hold the subscriber key.
	ErrMACFailure = errors.New("auth: MAC failure")
	// ErrSyncFailure means the SQN was outside the acceptance window;
	// the UE requests resynchronization.
	ErrSyncFailure = errors.New("auth: SQN synchronisation failure")
	// ErrResMismatch means the UE's RES did not match XRES.
	ErrResMismatch = errors.New("auth: RES mismatch")
)

// Vector is one EPS authentication vector as the HSS hands it to an
// MME (TS 33.401 §6.1.2). The four fields share one backing allocation
// (see GenerateVector).
type Vector struct {
	RAND  []byte // 16 bytes
	XRES  []byte // 8 bytes
	AUTN  []byte // 16 bytes: SQN⊕AK || AMF || MAC-A
	KASME []byte // 32 bytes
}

// defaultAMF is the authentication management field with the
// "separation bit" set, marking EPS AKA.
var defaultAMF = []byte{0x80, 0x00}

// vectorBufLen is the backing storage for one Vector:
// RAND(16) ‖ XRES(8) ‖ AUTN(16) ‖ KASME(32).
const vectorBufLen = 16 + 8 + 16 + 32

// keyedHash lazily materializes a reusable SHA-256 state. It lives
// inside pooled scratch structs so the hash.Hash allocation happens
// once per scratch, not once per MAC.
type keyedHash struct{ h hash.Hash }

func (k *keyedHash) get() hash.Hash {
	if k.h == nil {
		k.h = sha256.New()
	}
	return k.h
}

// hmacInto computes HMAC-SHA256(key, p0 ‖ p1) into s.osum. key must be
// at most one SHA-256 block (64 bytes); every key in the TS 33.401
// derivation tree is. All buffers handed to the hash interface live in
// the scratch struct, so the call allocates nothing.
func hmacInto(s *akaScratch, key, p0, p1 []byte) {
	h := s.h.get()
	for i := range s.blk {
		var kb byte
		if i < len(key) {
			kb = key[i]
		}
		s.blk[i] = kb ^ 0x36
	}
	h.Reset()
	h.Write(s.blk[:])
	h.Write(p0)
	if p1 != nil {
		h.Write(p1)
	}
	h.Sum(s.isum[:0])
	for i := range s.blk {
		s.blk[i] ^= 0x36 ^ 0x5c
	}
	h.Reset()
	h.Write(s.blk[:])
	h.Write(s.isum[:])
	h.Sum(s.osum[:0])
}

// kdfInto assembles the TS 33.220 KDF input string
// FC ‖ P0 ‖ L0 ‖ P1 ‖ L1 into s.kdf, returning its length. P0 comes
// from p0s or p0b (whichever is non-empty). The caller must have
// checked the string fits s.kdf (kdfFits).
func kdfInto(s *akaScratch, fc byte, p0s string, p0b, p1 []byte) int {
	b := append(s.kdf[:0], fc)
	n0 := len(p0b)
	if p0b != nil {
		b = append(b, p0b...)
	} else {
		b = append(b, p0s...)
		n0 = len(p0s)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(n0))
	b = append(b, p1...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(p1)))
	return len(b)
}

func kdfFits(s *akaScratch, n0, n1 int) bool { return 1+n0+2+n1+2 <= len(s.kdf) }

// deriveKASMEInto appends the 32-byte KASME to dst using the scratch's
// HMAC state (TS 33.401 A.2).
func deriveKASMEInto(s *akaScratch, dst, ck, ik []byte, snID string, sqnXorAK []byte) []byte {
	if !kdfFits(s, len(snID), len(sqnXorAK)) {
		// Absurdly long serving-network ID: fall back to the
		// allocating path rather than corrupting the scratch.
		return append(dst, DeriveKASME(ck, ik, snID, sqnXorAK)...)
	}
	copy(s.key[:16], ck)
	copy(s.key[16:32], ik)
	n := kdfInto(s, 0x10, snID, nil, sqnXorAK)
	hmacInto(s, s.key[:32], s.kdf[:n], nil)
	return append(dst, s.osum[:]...)
}

// putSQN encodes the 48-bit sequence number big-endian into dst.
func putSQN(dst *[6]byte, sqn uint64) {
	dst[0] = byte(sqn >> 40)
	dst[1] = byte(sqn >> 32)
	dst[2] = byte(sqn >> 24)
	dst[3] = byte(sqn >> 16)
	dst[4] = byte(sqn >> 8)
	dst[5] = byte(sqn)
}

func sqnValue(b *[6]byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// generateVectorBuf computes a vector into buf (len vectorBufLen),
// using s for every intermediate, and returns the Vector whose fields
// alias buf. The only allocation on this path is buf itself.
func generateVectorBuf(s *akaScratch, m *Milenage, sqn uint64, snID string, random16, buf []byte) (Vector, error) {
	rnd := buf[0:16:16]
	xres := buf[16:24:24]
	autn := buf[24:40:40]
	if random16 != nil {
		if len(random16) != 16 {
			return Vector{}, fmt.Errorf("auth: RAND must be 16 bytes")
		}
		copy(rnd, random16)
	} else if _, err := rand.Read(rnd); err != nil {
		return Vector{}, fmt.Errorf("auth: rand: %w", err)
	}
	copy(s.rnd[:], rnd)
	putSQN(&s.sqn, sqn)
	m.computeTemp(s)
	m.outNInto(s, 1) // OUT2: XRES ‖ … with AK in the low bytes
	copy(xres, s.out[8:16])
	copy(s.ak[:], s.out[0:6])
	m.outNInto(s, 2) // OUT3 = CK
	s.ck = s.out
	m.outNInto(s, 3) // OUT4 = IK
	s.ik = s.out
	m.out1Into(s, defaultAMF[0], defaultAMF[1]) // OUT1 = MAC-A ‖ MAC-S
	for i := 0; i < 6; i++ {
		autn[i] = s.sqn[i] ^ s.ak[i]
	}
	autn[6], autn[7] = defaultAMF[0], defaultAMF[1]
	copy(autn[8:16], s.out[0:8])
	kasme := deriveKASMEInto(s, buf[40:40:vectorBufLen], s.ck[:], s.ik[:], snID, autn[:6])
	return Vector{RAND: rnd, XRES: xres, AUTN: autn, KASME: kasme}, nil
}

// GenerateVector produces an authentication vector for the subscriber
// key set at sequence number sqn, for serving network snID. Pass a nil
// random16 to draw RAND from crypto/rand; tests inject a fixed RAND.
func GenerateVector(m *Milenage, sqn uint64, snID string, random16 []byte) (Vector, error) {
	s := getAKAScratch()
	v, err := generateVectorBuf(s, m, sqn, snID, random16, make([]byte, vectorBufLen))
	putAKAScratch(s)
	return v, err
}

// sqnBytes encodes the 48-bit sequence number big-endian.
func sqnBytes(sqn uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], sqn)
	return b[2:]
}

// SQNFromBytes decodes a 6-byte sequence number.
func SQNFromBytes(b []byte) uint64 {
	var full [8]byte
	copy(full[2:], b)
	return binary.BigEndian.Uint64(full[:])
}

// The UE accepts any SQN strictly greater than the highest it has
// seen. (TS 33.102 additionally bounds how far ahead a SQN may jump
// and recovers via AUTS resynchronization; with the time-based SQN
// generation dLTE stubs use — see SubscriberDB.NextVector — forward
// jumps are the *normal* roaming case, so the upper bound is elided
// here. Replay protection is unaffected.)

// UEContext is the SIM-side state needed to answer a network challenge.
type UEContext struct {
	Mil *Milenage
	// HighestSQN is the highest sequence number accepted so far.
	HighestSQN uint64
}

// ChallengeResult is what a successful UE-side AKA run yields. RES and
// KASME share one backing allocation.
type ChallengeResult struct {
	RES   []byte
	KASME []byte
}

// Respond runs UE-side AKA (TS 33.102 §6.3.3): recompute AK, unmask
// SQN, verify MAC-A, check SQN freshness, and derive RES and KASME.
func (u *UEContext) Respond(rnd, autn []byte, snID string) (ChallengeResult, error) {
	if len(rnd) != 16 || len(autn) != 16 {
		return ChallengeResult{}, fmt.Errorf("auth: challenge wants RAND[16] AUTN[16]")
	}
	s := getAKAScratch()
	defer putAKAScratch(s)
	copy(s.rnd[:], rnd)
	u.Mil.computeTemp(s)
	m := u.Mil
	m.outNInto(s, 1)
	var res [8]byte
	copy(res[:], s.out[8:16])
	copy(s.ak[:], s.out[0:6])
	for i := 0; i < 6; i++ {
		s.sqn[i] = autn[i] ^ s.ak[i]
	}
	m.outNInto(s, 2)
	s.ck = s.out
	m.outNInto(s, 3)
	s.ik = s.out
	m.out1Into(s, autn[6], autn[7])
	if !hmac.Equal(s.out[0:8], autn[8:16]) {
		return ChallengeResult{}, ErrMACFailure
	}
	sqn := sqnValue(&s.sqn)
	if sqn <= u.HighestSQN {
		return ChallengeResult{}, fmt.Errorf("%w: got %d, highest %d", ErrSyncFailure, sqn, u.HighestSQN)
	}
	u.HighestSQN = sqn
	buf := make([]byte, 8, 8+32)
	copy(buf, res[:])
	kasme := deriveKASMEInto(s, buf[8:8:8+32], s.ck[:], s.ik[:], snID, autn[:6])
	return ChallengeResult{RES: buf[0:8:8], KASME: kasme}, nil
}

// CheckRES compares the UE's RES against the vector's XRES in constant
// time, completing mutual authentication on the network side.
func CheckRES(v Vector, res []byte) error {
	if !hmac.Equal(v.XRES, res) {
		return ErrResMismatch
	}
	return nil
}

// resyncAMF is the AMF* used in resynchronization (TS 33.102 §6.3.3:
// all zeros).
var resyncAMF = []byte{0x00, 0x00}

// BuildAUTS constructs the resynchronization token the UE returns on a
// sync failure: AUTS = (SQNms ⊕ AK*) ‖ MAC-S, where AK* = f5*(RAND)
// and MAC-S = f1*(SQNms, AMF*, RAND). SQNms is the UE's highest
// accepted sequence number.
func (u *UEContext) BuildAUTS(rnd []byte) ([]byte, error) {
	if len(rnd) != 16 {
		return nil, fmt.Errorf("auth: AUTS wants RAND[16]")
	}
	sqnB := sqnBytes(u.HighestSQN)
	akStar, err := u.Mil.F5Star(rnd)
	if err != nil {
		return nil, err
	}
	_, macS, err := u.Mil.F1(rnd, sqnB, resyncAMF)
	if err != nil {
		return nil, err
	}
	auts := make([]byte, 0, 14)
	for i := 0; i < 6; i++ {
		auts = append(auts, sqnB[i]^akStar[i])
	}
	return append(auts, macS...), nil
}

// ErrBadAUTS reports a resynchronization token that failed to verify.
var ErrBadAUTS = errors.New("auth: invalid AUTS")

// RecoverSQNms verifies an AUTS token against the subscriber's key set
// and the RAND it answered, returning the UE's SQNms (TS 33.102
// §6.3.5, HSS side).
func RecoverSQNms(m *Milenage, rnd, auts []byte) (uint64, error) {
	if len(rnd) != 16 || len(auts) != 14 {
		return 0, fmt.Errorf("%w: wrong lengths", ErrBadAUTS)
	}
	akStar, err := m.F5Star(rnd)
	if err != nil {
		return 0, err
	}
	sqnB := make([]byte, 6)
	for i := 0; i < 6; i++ {
		sqnB[i] = auts[i] ^ akStar[i]
	}
	_, macS, err := m.F1(rnd, sqnB, resyncAMF)
	if err != nil {
		return 0, err
	}
	if !hmac.Equal(macS, auts[6:14]) {
		return 0, ErrBadAUTS
	}
	return SQNFromBytes(sqnB), nil
}

// DeriveKASME computes KASME = HMAC-SHA256(CK‖IK, S) with
// S = FC(0x10) ‖ SN-id ‖ len ‖ SQN⊕AK ‖ len (TS 33.401 A.2). The
// serving-network identity binds the key to the network the UE thinks
// it is talking to.
func DeriveKASME(ck, ik []byte, snID string, sqnXorAK []byte) []byte {
	s := kdfString(0x10, []byte(snID), sqnXorAK)
	mac := hmac.New(sha256.New, append(append([]byte{}, ck...), ik...))
	mac.Write(s)
	return mac.Sum(nil)
}

// Algorithm distinguishers for NAS key derivation (TS 33.401 A.7).
const (
	AlgoNASEnc = 0x01
	AlgoNASInt = 0x02
)

// kdfString assembles the TS 33.220 KDF input string:
// FC ‖ P0 ‖ L0 ‖ P1 ‖ L1.
func kdfString(fc byte, p0, p1 []byte) []byte {
	var b bytes.Buffer
	b.WriteByte(fc)
	b.Write(p0)
	binary.Write(&b, binary.BigEndian, uint16(len(p0)))
	b.Write(p1)
	binary.Write(&b, binary.BigEndian, uint16(len(p1)))
	return b.Bytes()
}

// NASKeys bundles the derived NAS session keys. Enc and Int share one
// backing allocation when produced by DeriveNASKeys.
type NASKeys struct {
	Enc []byte // K_NASenc
	Int []byte // K_NASint
}

// DeriveNASKeys derives both NAS keys using EEA1/EIA1-style algorithm
// identity 1.
func DeriveNASKeys(kasme []byte) NASKeys {
	return DeriveNASKeysInto(kasme, make([]byte, 0, 32))
}

// DeriveNASKeysInto is DeriveNASKeys appending the 32 bytes of key
// material to buf (len 0, cap ≥32 for the allocation-free path) —
// re-activating a security context across re-attaches reuses its
// backing storage instead of allocating fresh keys per AKA run.
func DeriveNASKeysInto(kasme, buf []byte) NASKeys {
	s := getAKAScratch()
	defer putAKAScratch(s)
	var p0 [1]byte
	var p1 = [1]byte{1} // algorithm identity
	p0[0] = AlgoNASEnc
	n := kdfInto(s, 0x15, "", p0[:], p1[:])
	hmacInto(s, kasme, s.kdf[:n], nil)
	buf = append(buf, s.osum[16:32]...)
	p0[0] = AlgoNASInt
	n = kdfInto(s, 0x15, "", p0[:], p1[:])
	hmacInto(s, kasme, s.kdf[:n], nil)
	buf = append(buf, s.osum[16:32]...)
	return NASKeys{Enc: buf[0:16:16], Int: buf[16:32:32]}
}

// Rekey recomputes the pad blocks for a new integrity key, reusing the
// context's storage — the re-attach path's counterpart to
// NewMACContext.
func (c *MACContext) Rekey(kInt []byte) {
	for i := range c.ipad {
		var kb byte
		if i < len(kInt) {
			kb = kInt[i]
		}
		c.ipad[i] = kb ^ 0x36
		c.opad[i] = kb ^ 0x5c
	}
}

// MACContext holds the precomputed HMAC-SHA256 pad blocks for one NAS
// integrity key, so each protected message costs two SHA-256 runs and
// zero allocations. A context belongs to one security context and is
// not safe for concurrent use.
type MACContext struct {
	h    keyedHash
	ipad [64]byte
	opad [64]byte
	cnt  [4]byte
	isum [32]byte
	osum [32]byte
}

// NewMACContext builds a MAC context for the NAS integrity key kInt
// (at most 64 bytes).
func NewMACContext(kInt []byte) *MACContext {
	c := &MACContext{}
	c.Rekey(kInt)
	return c
}

// ComputeInto writes the 4-byte NAS MAC over count ‖ msg into out.
func (c *MACContext) ComputeInto(count uint32, msg []byte, out *[4]byte) {
	h := c.h.get()
	binary.BigEndian.PutUint32(c.cnt[:], count)
	h.Reset()
	h.Write(c.ipad[:])
	h.Write(c.cnt[:])
	h.Write(msg)
	h.Sum(c.isum[:0])
	h.Reset()
	h.Write(c.opad[:])
	h.Write(c.isum[:])
	h.Sum(c.osum[:0])
	copy(out[:], c.osum[:4])
}

// Verify checks a 4-byte NAS MAC in constant time.
func (c *MACContext) Verify(count uint32, msg, gotMAC []byte) bool {
	var want [4]byte
	c.ComputeInto(count, msg, &want)
	return hmac.Equal(want[:], gotMAC)
}

// ComputeNASMAC computes the NAS message authentication code used in
// security-protected NAS transport: HMAC-SHA256 truncated to 4 bytes
// over count ‖ message. (Real LTE uses EIA1/2/3; an HMAC stands in with
// the same interface properties.) Hot paths hold a MACContext instead.
func ComputeNASMAC(kInt []byte, count uint32, msg []byte) []byte {
	mac := hmac.New(sha256.New, kInt)
	var c [4]byte
	binary.BigEndian.PutUint32(c[:], count)
	mac.Write(c[:])
	mac.Write(msg)
	return mac.Sum(nil)[:4]
}

// VerifyNASMAC checks a NAS MAC in constant time.
func VerifyNASMAC(kInt []byte, count uint32, msg, gotMAC []byte) bool {
	return hmac.Equal(ComputeNASMAC(kInt, count, msg), gotMAC)
}
