package checkpoint

import (
	"errors"
	"testing"
)

func TestPayloadRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0x7F)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xDEADBEEF)
	w.U64(1 << 60)
	w.I64(-1)
	w.I64(42)
	w.U32(3) // element count
	for i := 0; i < 3; i++ {
		w.U64(uint64(i))
	}

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0x7F {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -1 {
		t.Errorf("I64 = %d, want -1 (sentinel round trip)", got)
	}
	if got := r.I64(); got != 42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Count(8); got != 3 {
		t.Errorf("Count = %d", got)
	}
	for i := 0; i < 3; i++ {
		if got := r.U64(); got != uint64(i) {
			t.Errorf("element %d = %d", i, got)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestReaderOverrunIsSticky(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32() // overruns
	if got := r.U8(); got != 0 {
		t.Errorf("read after overrun = %d, want 0", got)
	}
	if err := r.Done(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Done = %v, want ErrInvalid", err)
	}
}

func TestReaderRejectsBadBool(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool() {
		t.Error("bad bool decoded as true")
	}
	if err := r.Done(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Done = %v, want ErrInvalid", err)
	}
}

func TestReaderRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	_ = r.U8()
	if err := r.Done(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Done = %v, want ErrInvalid", err)
	}
}

// TestCountBoundsAllocation pins the allocation bound: a count word claiming
// more elements than the remaining payload could possibly hold must fail
// instead of driving a huge make().
func TestCountBoundsAllocation(t *testing.T) {
	var w Writer
	w.U32(1 << 30) // claims a billion 8-byte elements in an empty payload
	r := NewReader(w.Bytes())
	if got := r.Count(8); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
	if err := r.Done(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Done = %v, want ErrInvalid", err)
	}
}

// TestNewWriterGrowsAKeptBufferWithHeadroom pins how NewWriter sizes its
// buffer: a dst with room is kept, a dst without storage becomes a buffer of
// exactly the file's size, and a kept buffer that is too short becomes one
// with a sixteenth of the file's size to spare, so that a file a little
// larger next time still fits.
func TestNewWriterGrowsAKeptBufferWithHeadroom(t *testing.T) {
	const size = 1600
	if w := NewWriter(nil, size, Version); cap(w.buf) != size {
		t.Errorf("new buffer of %d bytes for a %d-byte file", cap(w.buf), size)
	}
	roomy := make([]byte, 0, size)
	if w := NewWriter(roomy, size, Version); &w.buf[:1][0] != &roomy[:1][0] {
		t.Error("a buffer with room for the file was replaced")
	}
	short := make([]byte, 0, size-1)
	w := NewWriter(short, size, Version)
	if want := size + size/16; cap(w.buf) != want {
		t.Errorf("a kept %d-byte buffer regrew to %d bytes for a %d-byte file, want %d", cap(short), cap(w.buf), size, want)
	}
	if next := NewWriter(w.buf[:0], size+size/16, Version); &next.buf[:1][0] != &w.buf[:1][0] {
		t.Error("the regrown buffer does not hold a file a sixteenth larger")
	}
}
