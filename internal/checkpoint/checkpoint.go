package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Version is the current on-disk format version. Decoders reject any other
// value: an unknown future version is indistinguishable from garbage to an
// old decoder, and the correct response to both is a cold start.
const Version = 1

// magic identifies a checkpoint file. Exactly 8 bytes.
const magic = "GFTLCKPT"

const (
	// headerSize is the fixed prefix before the first section: magic plus
	// the version word.
	headerSize = len(magic) + 4
	// sectionOverhead is the framing cost of one section: id, length and
	// checksum words. Also the minimum encoded size of a section, which
	// bounds how many sections a decoder may need to allocate for.
	sectionOverhead = 12
)

// ErrInvalid reports that a byte stream is not a loadable checkpoint: bad
// magic, version skew, truncation, checksum mismatch, or framing damage.
var ErrInvalid = errors.New("checkpoint: invalid checkpoint")

// castagnoli is the CRC-32C table used for section checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one length-prefixed, individually checksummed unit of a
// checkpoint. The container does not interpret IDs or payloads.
type Section struct {
	ID      uint32
	Payload []byte
}

// File is a decoded checkpoint: a format version plus its sections in file
// order. Section order is part of the format — producers write a fixed
// order and consumers are entitled to rely on it.
type File struct {
	Version  uint32
	Sections []Section
}

// Size returns the length of Encode(f) without encoding it.
func Size(f *File) int {
	payload := 0
	for _, s := range f.Sections {
		payload += len(s.Payload)
	}
	return FileSize(len(f.Sections), payload)
}

// FileSize returns the encoded length of a file of n sections whose
// payloads total payload bytes.
func FileSize(n, payload int) int { return headerSize + n*sectionOverhead + payload }

// Encode serializes a checkpoint into the on-disk byte format, framing each
// section with the same Writer the FTL's export writes through.
func Encode(f *File) []byte {
	w := NewWriter(nil, Size(f), f.Version)
	for _, s := range f.Sections {
		w.Begin(s.ID)
		w.Raw(s.Payload)
		w.End()
	}
	return w.Bytes()
}

// Decode parses and validates the on-disk byte format. Payload slices alias
// the input — Decode allocates only the File and its section table, sized by
// a framing pass to the sections the input holds, so hostile inputs cannot
// force unbounded allocation. Any malformation returns an error wrapping
// ErrInvalid and a nil File.
func Decode(data []byte) (*File, error) {
	f := new(File)
	if err := DecodeInto(f, data); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto is Decode into f: it overwrites f, reusing f's section table
// when it has room for the sections data holds. On error f holds no
// sections.
func DecodeInto(f *File, data []byte) error {
	f.Version, f.Sections = 0, f.Sections[:0]
	if len(data) < headerSize {
		return fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrInvalid, len(data), headerSize)
	}
	if string(data[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrInvalid, data[:len(magic)])
	}
	version := binary.LittleEndian.Uint32(data[len(magic):headerSize])
	if version != Version {
		return fmt.Errorf("%w: format version %d, this build reads version %d", ErrInvalid, version, Version)
	}
	body := data[headerSize:]
	sections := f.Sections
	if n := countSections(body); cap(sections) < n {
		sections = make([]Section, 0, n)
	}
	for off := 0; off < len(body); {
		rest := body[off:]
		if len(rest) < sectionOverhead {
			return fmt.Errorf("%w: truncated section framing at offset %d", ErrInvalid, headerSize+off)
		}
		id := binary.LittleEndian.Uint32(rest)
		n := binary.LittleEndian.Uint32(rest[4:])
		if uint64(n) > uint64(len(rest)-sectionOverhead) {
			return fmt.Errorf("%w: section %#x claims %d payload bytes with %d remaining", ErrInvalid, id, n, len(rest)-sectionOverhead)
		}
		payload := rest[8 : 8+n : 8+n]
		sum := binary.LittleEndian.Uint32(rest[8+n:])
		if got := crc32.Checksum(rest[:8+n], castagnoli); got != sum {
			return fmt.Errorf("%w: section %#x checksum mismatch (stored %#x, computed %#x)", ErrInvalid, id, sum, got)
		}
		sections = append(sections, Section{ID: id, Payload: payload})
		off += sectionOverhead + int(n)
	}
	f.Version, f.Sections = version, sections
	return nil
}

// countSections returns how many sections body frames before its end or its
// first framing damage, without verifying checksums: Decode sizes its section
// table with it, and reports the damage itself. The count is at most
// len(body)/sectionOverhead.
func countSections(body []byte) int {
	n := 0
	for off := 0; len(body)-off >= sectionOverhead; n++ {
		size := binary.LittleEndian.Uint32(body[off+4:])
		if uint64(size) > uint64(len(body)-off-sectionOverhead) {
			break
		}
		off += sectionOverhead + int(size)
	}
	return n
}

// Boundaries returns the byte offsets at which a valid checkpoint can be
// cleanly cut: 0, the end of the magic, the end of the header, and the end
// of every section. The final entry is len(data). Corruption tests truncate
// at (and around) each of these to prove that every torn prefix is
// rejected. The input must itself be a valid checkpoint.
func Boundaries(data []byte) ([]int, error) {
	f, err := Decode(data)
	if err != nil {
		return nil, err
	}
	bounds := []int{0, len(magic), headerSize}
	off := headerSize
	for _, s := range f.Sections {
		off += sectionOverhead + len(s.Payload)
		bounds = append(bounds, off)
	}
	return bounds, nil
}

// WriteFile atomically replaces path with data, an encoded checkpoint: the
// bytes are written to a temporary file in the same directory, synced, and
// renamed over the destination. A crash mid-write therefore leaves the
// previous checkpoint (or no file) in place, never a torn one.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: chmod %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: renaming into place: %w", err)
	}
	return nil
}

// ReadFile reads a checkpoint file into buf, which it replaces only when the
// file does not fit in buf's capacity, and decodes it into f (DecodeInto):
// the sections alias the bytes read. It returns the file's size. Read errors
// (including a missing file, which callers should treat as an ordinary cold
// start) come back as the underlying OS error; content errors wrap
// ErrInvalid.
func ReadFile(f *File, path string, buf []byte) (int64, error) {
	fh, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err == nil {
		if n := int(st.Size()); cap(buf) >= n {
			buf = buf[:n]
		} else {
			buf = make([]byte, n)
		}
		_, err = io.ReadFull(fh, buf)
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}
	if err := DecodeInto(f, buf); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}
