package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Writer frames a checkpoint file into one buffer: the header, then for
// each section its id and length, its payload and its CRC. Both Encode and
// the FTL's export write through it, so a file whose Size is known up front
// is written into one buffer of that size and never copied. All integers are
// little-endian. The zero value writes bare payload bytes, without framing.
type Writer struct {
	buf []byte
	// start is the offset of the open section's id word.
	start int
}

// NewWriter returns a Writer that appends a file of size bytes to dst, with
// the header for version already written. dst's storage is kept when it has
// room for size more bytes. Otherwise a dst without storage is replaced by
// a buffer of exactly size bytes, and a kept one that is too short by one of
// len(dst)+size bytes and a sixteenth of size more, so that a buffer whose
// files grow a little from one checkpoint to the next is not replaced at
// every one.
func NewWriter(dst []byte, size int, version uint32) *Writer {
	if cap(dst)-len(dst) < size {
		headroom := 0
		if cap(dst) > 0 {
			headroom = size / 16
		}
		dst = append(make([]byte, 0, len(dst)+size+headroom), dst...)
	}
	w := &Writer{buf: append(dst, magic...)}
	w.U32(version)
	return w
}

// Begin opens a section: its id, and a length word that End fills in.
func (w *Writer) Begin(id uint32) {
	w.start = len(w.buf)
	w.U32(id)
	w.U32(0)
}

// End closes the open section: it writes the payload's length into the
// section's framing and appends the CRC-32C of id, length and payload.
func (w *Writer) End() {
	binary.LittleEndian.PutUint32(w.buf[w.start+4:], uint32(len(w.buf)-w.start-8))
	w.U32(crc32.Checksum(w.buf[w.start:], castagnoli))
}

// Raw appends p as it is.
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64 (two's complement), so sentinel values
// like -1 round-trip exactly.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bytes returns what has been written.
func (w *Writer) Bytes() []byte { return w.buf }

// Reader consumes a section payload written by Writer. It is overrun-safe:
// reading past the end sets a sticky failure and returns zero values, and
// Done reports whether the payload parsed cleanly and completely. Callers
// check Done once at the end instead of checking every read.
type Reader struct {
	data []byte
	off  int
	fail bool
}

// NewReader wraps a payload for reading.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// take returns the next n bytes, or fails.
func (r *Reader) take(n int) []byte {
	if r.fail || n > len(r.data)-r.off {
		r.fail = true
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool; any value other than 0 or 1 is a failure.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail = true
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Count reads a uint32 element count for a sequence whose elements encode
// to at least elemBytes each, and fails unless that many elements can still
// fit in the remaining payload. Pre-allocating `Count(n)` elements is
// therefore bounded by the input size even for hostile payloads.
func (r *Reader) Count(elemBytes int) int {
	n := r.U32()
	if elemBytes < 1 {
		elemBytes = 1
	}
	if r.fail || uint64(n) > uint64(len(r.data)-r.off)/uint64(elemBytes) {
		r.fail = true
		return 0
	}
	return int(n)
}

// Done returns nil when every read succeeded and the payload was consumed
// exactly; otherwise it returns an error wrapping ErrInvalid.
func (r *Reader) Done() error {
	if r.fail {
		return fmt.Errorf("%w: truncated or malformed section payload", ErrInvalid)
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes in section payload", ErrInvalid, len(r.data)-r.off)
	}
	return nil
}
