package bitmap

import (
	"fmt"
	"iter"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitmap is a fixed-size bit array. The zero value is an empty bitmap of size
// zero; use New to create one with a given number of bits.
//
// Bitmap is not safe for concurrent use.
type Bitmap struct {
	bits  int
	words []uint64
}

// New returns a bitmap of the given number of bits, all cleared.
// It panics if bits is negative.
func New(bits int) *Bitmap {
	if bits < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", bits))
	}
	return &Bitmap{
		bits:  bits,
		words: make([]uint64, (bits+wordBits-1)/wordBits),
	}
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.bits }

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.bits {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.bits))
	}
}

// Set sets bit i to 1.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Reset clears every bit.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// PopCountBelow returns the number of set bits at indices below n, which is
// clamped to the bitmap's size.
func (b *Bitmap) PopCountBelow(n int) int {
	n = max(0, min(n, b.bits))
	total := 0
	for _, w := range b.words[:n/wordBits] {
		total += bits.OnesCount64(w)
	}
	if rest := n % wordBits; rest != 0 {
		total += bits.OnesCount64(b.words[n/wordBits] & (1<<uint(rest) - 1))
	}
	return total
}

// Or merges other into b with bitwise OR. This is the merge operator used by
// GC queries and run merges (Algorithm 3). It panics if the sizes differ.
func (b *Bitmap) Or(other *Bitmap) {
	if b.bits != other.bits {
		panic(fmt.Sprintf("bitmap: OR of mismatched sizes %d and %d", b.bits, other.bits))
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// OrWords merges the first n bits of raw little-endian words into bits
// [offset, offset+n), a word at a time. Logarithmic Gecko keeps the chunks of
// its entries as bare words inside per-run slabs and folds them into a GC
// query's result with it, without materializing a Bitmap per chunk.
func (b *Bitmap) OrWords(offset int, words []uint64, n int) {
	if offset < 0 || n < 0 || offset+n > b.bits || n > len(words)*wordBits {
		panic(fmt.Sprintf("bitmap: OrWords [%d,%d) out of range [0,%d)", offset, offset+n, b.bits))
	}
	shift := uint(offset % wordBits)
	for i, dst := 0, offset/wordBits; i*wordBits < n; i, dst = i+1, dst+1 {
		w := words[i]
		if rest := n - i*wordBits; rest < wordBits {
			w &= 1<<uint(rest) - 1
		}
		b.words[dst] |= w << shift
		if shift != 0 && dst+1 < len(b.words) {
			b.words[dst+1] |= w >> (wordBits - shift)
		}
	}
}

// CopyFrom overwrites b with other's bits, a word at a time. It panics if the
// sizes differ.
func (b *Bitmap) CopyFrom(other *Bitmap) {
	if b.bits != other.bits {
		panic(fmt.Sprintf("bitmap: copy of mismatched sizes %d and %d", b.bits, other.bits))
	}
	copy(b.words, other.words)
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := New(b.bits)
	copy(out.words, b.words)
	return out
}

// Ones iterates, in ascending order, over the set bits at or after lo and
// below hi of a bare word slice (bit i is bit i%64 of words[i/64]). lo must
// not be negative; hi beyond the words is clamped to them. It is the one
// set-bit walk of the package, a word at a time:
//
//	for i := range bitmap.Ones(words, lo, hi) { ... }
//
// The FTL's dense indexes (mapping cache, Gecko buffer, full-block buckets)
// keep a presence bitset beside a direct-addressed array and read their
// entries back in key order with it, instead of sorting.
func Ones(words []uint64, lo, hi int) iter.Seq[int] {
	return func(yield func(int) bool) {
		hi := min(hi, len(words)*wordBits)
		if lo >= hi {
			return
		}
		first, last := lo/wordBits, (hi-1)/wordBits
		for wi := first; wi <= last; wi++ {
			w := words[wi]
			if wi == first {
				w &^= 1<<uint(lo%wordBits) - 1
			}
			if wi == last && hi%wordBits != 0 {
				w &= 1<<uint(hi%wordBits) - 1
			}
			for ; w != 0; w &= w - 1 {
				if !yield(wi*wordBits + bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

// Rows is a fixed number of equal-sized bitmaps carved from one word slice,
// one allocation however many rows there are. Recovery folds Logarithmic
// Gecko's runs into one row per block with it.
type Rows struct {
	n, bits int
	wpr     int // words per row
	words   []uint64
}

// NewRows returns n rows of the given number of bits, all cleared.
func NewRows(n, bits int) *Rows {
	if n < 0 || bits < 0 {
		panic(fmt.Sprintf("bitmap: %d rows of %d bits", n, bits))
	}
	wpr := (bits + wordBits - 1) / wordBits
	return &Rows{n: n, bits: bits, wpr: wpr, words: make([]uint64, n*wpr)}
}

// Reset clears every bit of every row.
func (r *Rows) Reset() { clear(r.words) }

// Row returns row i as a bitmap that shares the rows' storage: setting or
// OR-ing its bits changes the row.
func (r *Rows) Row(i int) Bitmap {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("bitmap: row %d out of range [0,%d)", i, r.n))
	}
	return Bitmap{bits: r.bits, words: r.words[i*r.wpr : (i+1)*r.wpr : (i+1)*r.wpr]}
}

// String renders the bitmap as a string of '0' and '1' characters, bit 0
// first, e.g. "01000010". Large bitmaps are abbreviated.
func (b *Bitmap) String() string {
	const maxRender = 256
	n := b.bits
	truncated := false
	if n > maxRender {
		n = maxRender
		truncated = true
	}
	var sb strings.Builder
	sb.Grow(n + 16)
	for i := 0; i < n; i++ {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if truncated {
		fmt.Fprintf(&sb, "...(%d bits)", b.bits)
	}
	return sb.String()
}
