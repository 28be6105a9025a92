package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// sample builds a small but structurally interesting checkpoint: several
// sections, one of them empty, IDs out of numeric order (order is positional,
// not sorted).
func sample() *File {
	return &File{
		Version: Version,
		Sections: []Section{
			{ID: 0x01, Payload: []byte{1, 2, 3, 4}},
			{ID: 0x0310, Payload: nil},
			{ID: 0x10, Payload: bytes.Repeat([]byte{0xAB}, 100)},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sample()
	data := Encode(f)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Version != f.Version {
		t.Fatalf("version %d, want %d", got.Version, f.Version)
	}
	if len(got.Sections) != len(f.Sections) {
		t.Fatalf("%d sections, want %d", len(got.Sections), len(f.Sections))
	}
	for i, s := range got.Sections {
		if s.ID != f.Sections[i].ID || !bytes.Equal(s.Payload, f.Sections[i].Payload) {
			t.Errorf("section %d: got id %#x payload %v", i, s.ID, s.Payload)
		}
	}
	// Encoding is canonical: re-encoding the decoded file reproduces the
	// exact input bytes.
	if !bytes.Equal(Encode(got), data) {
		t.Error("re-encode of decoded file differs from input")
	}
	// Size is the encoded length, and the section table has room for the
	// sections and no more.
	if Size(f) != len(data) {
		t.Errorf("Size = %d, encoded %d bytes", Size(f), len(data))
	}
	if cap(got.Sections) != len(f.Sections) {
		t.Errorf("section table of %d for %d sections", cap(got.Sections), len(f.Sections))
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid := Encode(sample())
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:headerSize-1] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(magic):], Version+1)
			return b
		}},
		{"zero version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(magic):], 0)
			return b
		}},
		{"truncated framing", func(b []byte) []byte { return b[:headerSize+sectionOverhead-1] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"overclaimed length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[headerSize+4:], 1<<31)
			return b
		}},
		{"payload bit flip", func(b []byte) []byte { b[headerSize+8] ^= 0x01; return b }},
		{"checksum bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"id bit flip", func(b []byte) []byte { b[headerSize] ^= 0x01; return b }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xEE) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			f, err := Decode(data)
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Decode error = %v, want ErrInvalid", err)
			}
			if f != nil {
				t.Fatal("Decode returned a partial file alongside an error")
			}
		})
	}
}

func TestBoundaries(t *testing.T) {
	f := sample()
	data := Encode(f)
	bounds, err := Boundaries(data)
	if err != nil {
		t.Fatalf("Boundaries: %v", err)
	}
	// 0, end of magic, end of header, then one per section.
	if want := 3 + len(f.Sections); len(bounds) != want {
		t.Fatalf("%d boundaries, want %d", len(bounds), want)
	}
	if bounds[0] != 0 || bounds[1] != len(magic) || bounds[2] != headerSize {
		t.Fatalf("prefix boundaries %v", bounds[:3])
	}
	if last := bounds[len(bounds)-1]; last != len(data) {
		t.Fatalf("final boundary %d, want %d", last, len(data))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("boundaries not strictly increasing: %v", bounds)
		}
	}
	// Cuts inside the header are rejected outright. A cut exactly at a
	// section boundary yields a structurally valid file with fewer
	// sections — the container cannot see missing trailing sections; the
	// consumer's section-count check rejects those — while a cut one byte
	// off a boundary breaks framing or a checksum and is rejected here.
	for i, cut := range bounds[:len(bounds)-1] {
		f, err := Decode(data[:cut])
		if cut < headerSize {
			if !errors.Is(err, ErrInvalid) {
				t.Errorf("truncation at %d accepted (err %v)", cut, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("boundary cut at %d rejected: %v", cut, err)
			continue
		}
		if want := i - 2; len(f.Sections) != want {
			t.Errorf("boundary cut at %d decoded %d sections, want %d", cut, len(f.Sections), want)
		}
		if _, err := Decode(data[:cut+1]); !errors.Is(err, ErrInvalid) {
			t.Errorf("off-boundary cut at %d accepted (err %v)", cut+1, err)
		}
	}
	if _, err := Boundaries(data[:len(data)-1]); !errors.Is(err, ErrInvalid) {
		t.Errorf("Boundaries of a torn file: %v, want ErrInvalid", err)
	}
}

func TestWriteFileReadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.ckpt")
	f := sample()
	data := Encode(f)
	if err := WriteFile(path, data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// The reload fills the caller's buffer when the file fits in it.
	buf := make([]byte, 0, len(data))
	got := new(File)
	size, err := ReadFile(got, path, buf)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if size != int64(len(data)) {
		t.Fatalf("ReadFile size %d, want %d", size, len(data))
	}
	if !bytes.Equal(Encode(got), data) {
		t.Error("round-tripped file differs")
	}
	if p := got.Sections[0].Payload; &p[0] != &buf[:cap(buf)][headerSize+8] {
		t.Error("ReadFile did not read into the buffer it was given")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after WriteFile, want 1", len(entries))
	}
	// Atomic replace: a second write overwrites in place.
	if err := WriteFile(path, Encode(&File{Version: Version})); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	// A buffer too small for the file is replaced, not overrun, and the
	// file decoded into keeps its section table.
	table := &got.Sections[0]
	if _, err = ReadFile(got, path, make([]byte, 0, 1)); err != nil {
		t.Fatalf("ReadFile after overwrite: %v", err)
	}
	if len(got.Sections) != 0 {
		t.Errorf("overwritten file has %d sections, want 0", len(got.Sections))
	}
	if err := DecodeInto(got, data); err != nil {
		t.Fatal(err)
	}
	if &got.Sections[0] != table {
		t.Error("DecodeInto replaced a section table that had room")
	}
	if !bytes.Equal(Encode(got), data) {
		t.Error("file decoded into a used File differs")
	}
	if err := DecodeInto(got, data[:len(data)-1]); !errors.Is(err, ErrInvalid) || len(got.Sections) != 0 {
		t.Errorf("DecodeInto a torn file: %v, %d sections left; want ErrInvalid and none", err, len(got.Sections))
	}
}

func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile(new(File), filepath.Join(t.TempDir(), "absent.ckpt"), nil)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
	if errors.Is(err, ErrInvalid) {
		t.Fatal("a missing file must not classify as an invalid checkpoint")
	}
}

func TestReadFileCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(new(File), path, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}
