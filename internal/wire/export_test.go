package wire

// FrameClassBytes exposes the pooled frame class to the external tests.
const FrameClassBytes = frameClassBytes
