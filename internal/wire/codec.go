package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/packet"
)

// Type distinguishes the datagram kinds of the PELS wire protocol.
type Type uint8

const (
	// TypeData carries video payload colored green, yellow, or red.
	TypeData Type = 1
	// TypeFeedback echoes a router feedback label from receiver to
	// sender (the reverse path the simulator models with ACK packets).
	TypeFeedback Type = 2
	// TypeHello subscribes a receiver to a stream; cmd/pelsd starts a
	// session when one arrives.
	TypeHello Type = 3
	// TypeReject tells a receiver its hello was not admitted. The Index
	// field carries a Reason code and the Frame field a retry-after hint
	// in milliseconds (see ControlHeader) — reusing existing header
	// fields keeps the 60-byte layout, the zero-alloc codec, and the CRC
	// coverage unchanged.
	TypeReject Type = 4
	// TypeClose tells a receiver its session ended (drained, reaped
	// idle/stuck, or completed). Same field reuse as TypeReject.
	TypeClose Type = 5
)

// String returns the lower-case type name.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeFeedback:
		return "feedback"
	case TypeHello:
		return "hello"
	case TypeReject:
		return "reject"
	case TypeClose:
		return "close"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Wire format constants. All integers are big-endian.
const (
	// Magic is the four-byte datagram prefix "PELS".
	Magic uint32 = 0x50454C53
	// VersionV1 is the only wire version this codec speaks.
	VersionV1 = 1
	// HeaderSize is the fixed encoded header length in bytes.
	HeaderSize = 60
	// MaxPayload bounds the payload so a datagram fits a conservative
	// 1500-byte MTU with headroom for UDP/IP headers.
	MaxPayload = 1400
	// MaxDatagram is the largest valid encoded datagram.
	MaxDatagram = HeaderSize + MaxPayload
)

// Header byte offsets, exported so routers can patch fields in place
// (see StampFeedback) without re-encoding the whole datagram.
const (
	offMagic     = 0  // uint32
	offVersion   = 4  // uint8
	offType      = 5  // uint8
	offColor     = 6  // uint8
	offFlags     = 7  // uint8
	offFlow      = 8  // uint32
	offFrame     = 12 // uint32
	offIndex     = 16 // uint16
	offPayload   = 18 // uint16
	offSeq       = 20 // uint64
	offTimestamp = 28 // int64, unix nanoseconds
	offRouterID  = 36 // int32
	offEpoch     = 40 // uint64
	offLoss      = 48 // float64 bits
	offCRC       = 56 // uint32, CRC-32C over the datagram with this field zeroed
)

// flagFeedbackValid marks that the feedback label fields carry a real
// router stamp. All other flag bits must be zero in v1.
const flagFeedbackValid = 0x01

// Decode errors. DecodeDatagram wraps each with positional detail; use
// errors.Is to classify.
var (
	ErrTruncated = errors.New("wire: datagram shorter than header")
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrType      = errors.New("wire: unknown datagram type")
	ErrColor     = errors.New("wire: invalid color")
	ErrFlags     = errors.New("wire: reserved flag bits set")
	ErrOversized = errors.New("wire: payload exceeds MaxPayload")
	ErrLength    = errors.New("wire: datagram length disagrees with header")
	ErrLoss      = errors.New("wire: non-finite loss in feedback label")
	ErrChecksum  = errors.New("wire: checksum mismatch")
)

// crcTable is the Castagnoli polynomial, chosen for its hardware support
// and strictly better burst-error detection than IEEE CRC-32.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcOf computes the datagram checksum: CRC-32C over the entire datagram
// with the checksum field itself taken as zero. Covering the payload too
// means a corrupted datagram can never reach per-color sequence
// accounting — corruption becomes loss, which the control loops already
// handle.
//
//pelsvet:noalloc
func crcOf(b []byte) uint32 {
	sum := crc32.Update(0, crcTable, b[:offCRC])
	sum = crc32.Update(sum, crcTable, crcZero[:])
	return crc32.Update(sum, crcTable, b[offCRC+4:])
}

// crcZero stands in for the zeroed checksum field during verification; it
// lives at package scope because escape analysis cannot see through the
// hardware-accelerated crc32.Update and would heap-allocate a local.
var crcZero [4]byte

// patchCRC recomputes and writes the checksum of an encoded datagram.
// Every in-place mutation (StampFeedback, ClearFeedback) must call it
// last.
func patchCRC(b []byte) {
	binary.BigEndian.PutUint32(b[offCRC:], crcOf(b))
}

// Header is the decoded PELS wire header. Seq is a per-color sequence
// number for data datagrams (the receiver derives per-color loss from its
// gaps) and a monotonic counter for feedback datagrams. Timestamp is the
// sender's clock in unix nanoseconds.
type Header struct {
	Type      Type
	Color     packet.Color
	Flow      uint32
	Frame     uint32
	Index     uint16
	Seq       uint64
	Timestamp int64
	Feedback  packet.Feedback
}

// validate checks the fields that have restricted domains on the wire.
func (h Header) validate() error {
	switch h.Type {
	case TypeData:
		// The wire carries exactly the three paper bands (plus
		// best-effort): extended simulator layers must be mapped onto
		// bands before encoding (stream.Core.Band), so a wider
		// IsPELS check would be wrong here.
		if !h.Color.IsWireBand() && h.Color != packet.BestEffort {
			return fmt.Errorf("%w: data datagram colored %v", ErrColor, h.Color)
		}
	case TypeFeedback, TypeHello, TypeReject, TypeClose:
		if h.Color != packet.ACK {
			return fmt.Errorf("%w: %v datagram colored %v (want ack)", ErrColor, h.Type, h.Color)
		}
	default:
		return fmt.Errorf("%w: %d", ErrType, uint8(h.Type))
	}
	if h.Feedback.Valid && (math.IsNaN(h.Feedback.Loss) || math.IsInf(h.Feedback.Loss, 0)) {
		return fmt.Errorf("%w: %v", ErrLoss, h.Feedback.Loss)
	}
	if h.Feedback.RouterID != int(int32(h.Feedback.RouterID)) {
		return fmt.Errorf("wire: router id %d overflows int32", h.Feedback.RouterID)
	}
	return nil
}

// AppendDatagram encodes h and payload onto dst and returns the extended
// slice. It fails on invalid headers or payloads longer than MaxPayload.
//
//pelsvet:noalloc
func AppendDatagram(dst []byte, h Header, payload []byte) ([]byte, error) {
	if err := h.validate(); err != nil {
		return dst, err
	}
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrOversized, len(payload))
	}
	start := len(dst)
	dst = append(dst, zeroHeader[:]...)
	b := dst[start:]
	binary.BigEndian.PutUint32(b[offMagic:], Magic)
	b[offVersion] = VersionV1
	b[offType] = uint8(h.Type)
	b[offColor] = uint8(h.Color)
	if h.Feedback.Valid {
		b[offFlags] = flagFeedbackValid
	}
	binary.BigEndian.PutUint32(b[offFlow:], h.Flow)
	binary.BigEndian.PutUint32(b[offFrame:], h.Frame)
	binary.BigEndian.PutUint16(b[offIndex:], h.Index)
	binary.BigEndian.PutUint16(b[offPayload:], uint16(len(payload)))
	binary.BigEndian.PutUint64(b[offSeq:], h.Seq)
	binary.BigEndian.PutUint64(b[offTimestamp:], uint64(h.Timestamp))
	binary.BigEndian.PutUint32(b[offRouterID:], uint32(int32(h.Feedback.RouterID)))
	binary.BigEndian.PutUint64(b[offEpoch:], h.Feedback.Epoch)
	binary.BigEndian.PutUint64(b[offLoss:], math.Float64bits(h.Feedback.Loss))
	dst = append(dst, payload...)
	// The CRC field is still zero, so one pass over the whole datagram
	// computes exactly the checksum definition crcOf implements with three.
	binary.BigEndian.PutUint32(dst[start+offCRC:], crc32.Update(0, crcTable, dst[start:]))
	return dst, nil
}

// zeroHeader reserves header space in AppendDatagram without a temporary.
var zeroHeader [HeaderSize]byte

// EncodeDatagram is AppendDatagram into a fresh buffer.
func EncodeDatagram(h Header, payload []byte) ([]byte, error) {
	return AppendDatagram(make([]byte, 0, HeaderSize+len(payload)), h, payload)
}

// DecodeDatagram parses one datagram. The returned payload aliases b.
// Truncated, oversized, or otherwise malformed input yields an error —
// never a panic — and a successful decode re-encodes byte-identically.
//
//pelsvet:noalloc
func DecodeDatagram(b []byte) (Header, []byte, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if got := binary.BigEndian.Uint32(b[offMagic:]); got != Magic {
		return h, nil, fmt.Errorf("%w: %#08x", ErrMagic, got)
	}
	if b[offVersion] != VersionV1 {
		return h, nil, fmt.Errorf("%w: %d", ErrVersion, b[offVersion])
	}
	plen := int(binary.BigEndian.Uint16(b[offPayload:]))
	if plen > MaxPayload {
		return Header{}, nil, fmt.Errorf("%w: header claims %d bytes", ErrOversized, plen)
	}
	if len(b) != HeaderSize+plen {
		return Header{}, nil, fmt.Errorf("%w: header claims %d payload bytes, datagram has %d",
			ErrLength, plen, len(b)-HeaderSize)
	}
	// Checksum before any field is interpreted: a corrupted datagram must
	// be indistinguishable from a lost one, or garbled sequence numbers
	// would poison the receiver's per-color loss accounting.
	if got, want := binary.BigEndian.Uint32(b[offCRC:]), crcOf(b); got != want {
		return Header{}, nil, fmt.Errorf("%w: got %#08x, computed %#08x", ErrChecksum, got, want)
	}
	if b[offFlags]&^flagFeedbackValid != 0 {
		return h, nil, fmt.Errorf("%w: %#02x", ErrFlags, b[offFlags])
	}
	h.Type = Type(b[offType])
	h.Color = packet.Color(b[offColor])
	h.Flow = binary.BigEndian.Uint32(b[offFlow:])
	h.Frame = binary.BigEndian.Uint32(b[offFrame:])
	h.Index = binary.BigEndian.Uint16(b[offIndex:])
	h.Seq = binary.BigEndian.Uint64(b[offSeq:])
	h.Timestamp = int64(binary.BigEndian.Uint64(b[offTimestamp:]))
	h.Feedback = packet.Feedback{
		RouterID: int(int32(binary.BigEndian.Uint32(b[offRouterID:]))),
		Epoch:    binary.BigEndian.Uint64(b[offEpoch:]),
		Loss:     math.Float64frombits(binary.BigEndian.Uint64(b[offLoss:])),
		Valid:    b[offFlags]&flagFeedbackValid != 0,
	}
	if err := h.validate(); err != nil {
		return Header{}, nil, err
	}
	return h, b[HeaderSize:], nil
}

// PeekType returns the type of an encoded datagram without a full decode.
// The second return is false when b is too short or not a v1 PELS
// datagram. Like PeekColor it does not verify the checksum — it exists
// for cheap classification on the forwarding path, where a corrupted
// datagram is caught by the endpoint's full decode.
func PeekType(b []byte) (Type, bool) {
	if len(b) < HeaderSize ||
		binary.BigEndian.Uint32(b[offMagic:]) != Magic ||
		b[offVersion] != VersionV1 {
		return 0, false
	}
	return Type(b[offType]), true
}

// PeekColor returns the color of an encoded datagram without a full
// decode, for priority classification on the forwarding path. The second
// return is false when b is not a well-formed v1 data datagram.
func PeekColor(b []byte) (packet.Color, bool) {
	if len(b) < HeaderSize ||
		binary.BigEndian.Uint32(b[offMagic:]) != Magic ||
		b[offVersion] != VersionV1 ||
		Type(b[offType]) != TypeData {
		return 0, false
	}
	c := packet.Color(b[offColor])
	if !c.IsWireBand() && c != packet.BestEffort {
		return 0, false
	}
	return c, true
}

// StampFeedback merges fb into the feedback label of an encoded datagram
// in place, using the max-loss override of packet.Feedback.Merge (paper
// eq. 8): the stamp wins when the datagram has no label, carries this
// router's own label, or records a smaller loss. It is the live
// counterpart of aqm.Feedback.Process and avoids decode/re-encode
// allocations on the forwarding path.
func StampFeedback(b []byte, fb packet.Feedback) error {
	if len(b) < HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if binary.BigEndian.Uint32(b[offMagic:]) != Magic {
		return ErrMagic
	}
	if b[offVersion] != VersionV1 {
		return fmt.Errorf("%w: %d", ErrVersion, b[offVersion])
	}
	// Refuse to stamp a datagram that is already damaged: recomputing the
	// checksum over corrupted bytes would launder the corruption back into
	// a "valid" datagram.
	if binary.BigEndian.Uint32(b[offCRC:]) != crcOf(b) {
		return ErrChecksum
	}
	cur := packet.Feedback{
		RouterID: int(int32(binary.BigEndian.Uint32(b[offRouterID:]))),
		Epoch:    binary.BigEndian.Uint64(b[offEpoch:]),
		Loss:     math.Float64frombits(binary.BigEndian.Uint64(b[offLoss:])),
		Valid:    b[offFlags]&flagFeedbackValid != 0,
	}
	merged := cur.Merge(fb.RouterID, fb.Epoch, fb.Loss)
	if merged == cur {
		return nil
	}
	binary.BigEndian.PutUint32(b[offRouterID:], uint32(int32(merged.RouterID)))
	binary.BigEndian.PutUint64(b[offEpoch:], merged.Epoch)
	binary.BigEndian.PutUint64(b[offLoss:], math.Float64bits(merged.Loss))
	b[offFlags] |= flagFeedbackValid
	patchCRC(b)
	return nil
}

// ClearFeedback strips the feedback label of an encoded datagram in
// place (Valid=false, fields zeroed) and repairs the checksum. Fault
// injectors use it to model a router whose feedback path is starved:
// data keeps flowing but carries no stamp.
func ClearFeedback(b []byte) error {
	if len(b) < HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if binary.BigEndian.Uint32(b[offMagic:]) != Magic {
		return ErrMagic
	}
	if b[offVersion] != VersionV1 {
		return fmt.Errorf("%w: %d", ErrVersion, b[offVersion])
	}
	if binary.BigEndian.Uint32(b[offCRC:]) != crcOf(b) {
		return ErrChecksum
	}
	b[offFlags] &^= flagFeedbackValid
	binary.BigEndian.PutUint32(b[offRouterID:], 0)
	binary.BigEndian.PutUint64(b[offEpoch:], 0)
	binary.BigEndian.PutUint64(b[offLoss:], 0)
	patchCRC(b)
	return nil
}
