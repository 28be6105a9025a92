package bitmap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewSizes(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000} {
		b := New(n)
		if b.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, b.Len())
		}
		if len(setBits(b)) != 0 {
			t.Errorf("New(%d) has %d set bits, want 0", n, len(setBits(b)))
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Errorf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if got := len(setBits(b)); got != 8 {
		t.Errorf("%d bits set, want 8", got)
	}
	b.Reset()
	if got := setBits(b); len(got) != 0 {
		t.Errorf("bits %v still set after Reset", got)
	}
}

// TestSetAllResetAnyNone sets every bit of a bitmap whose last word is
// partly used, then checks that Reset leaves none set.
func TestSetAllResetAnyNone(t *testing.T) {
	b := New(70)
	if got := setBits(b); len(got) != 0 {
		t.Errorf("fresh bitmap has bits %v set", got)
	}
	for i := 0; i < b.Len(); i++ {
		b.Set(i)
	}
	if got := b.PopCountBelow(b.Len()); got != 70 {
		t.Errorf("PopCountBelow(70) after setting every bit = %d, want 70", got)
	}
	b.Reset()
	if got := setBits(b); len(got) != 0 {
		t.Errorf("bits %v still set after Reset", got)
	}
}

func TestPopCountBelowMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{0, 1, 63, 64, 65, 130, 256} {
		b := New(size)
		for i := 0; i < size; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		want := 0
		for n := -1; n <= size+1; n++ {
			if n > 0 && n <= size && b.Get(n-1) {
				want++
			}
			if got := b.PopCountBelow(n); got != want {
				t.Fatalf("size %d: PopCountBelow(%d) = %d, want %d", size, n, got, want)
			}
		}
	}
}

func TestRowsAreDisjointViews(t *testing.T) {
	for _, bits := range []int{1, 63, 64, 65, 130} {
		r := NewRows(5, bits)
		for i := range 5 {
			row := r.Row(i)
			row.Set(i % bits)
			row.Set(bits - 1)
		}
		for i := range 5 {
			row := r.Row(i)
			want := New(bits)
			want.Set(i % bits)
			want.Set(bits - 1)
			if !equal(&row, want) {
				t.Fatalf("%d bits: row %d = %v, want %v", bits, i, setBits(&row), setBits(want))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Row past the last row did not panic")
		}
	}()
	NewRows(2, 8).Row(2)
}

func TestSetIsIdempotent(t *testing.T) {
	b := New(10)
	b.Set(3)
	b.Set(3)
	if got := len(setBits(b)); got != 1 {
		t.Errorf("%d bits set after double Set, want 1", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(8)
	for _, i := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			b.Get(i)
		}()
	}
}

func TestOr(t *testing.T) {
	a := New(128)
	b := New(128)
	a.Set(1)
	a.Set(100)
	b.Set(2)
	b.Set(100)
	a.Or(b)
	if got, want := setBits(a), []int{1, 2, 100}; !slices.Equal(got, want) {
		t.Fatalf("set bits = %v, want %v", got, want)
	}
	// OR must not modify the argument.
	if len(setBits(b)) != 2 {
		t.Errorf("argument modified by Or: %v", setBits(b))
	}
}

func TestOrMismatchedSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with mismatched sizes did not panic")
		}
	}()
	New(8).Or(New(16))
}

func TestCloneAndEqual(t *testing.T) {
	a := New(100)
	a.Set(7)
	a.Set(99)
	b := a.Clone()
	if !equal(a, b) {
		t.Fatal("clone not equal to original")
	}
	b.Set(50)
	if a.Get(50) {
		t.Fatal("modifying clone affected original")
	}
	a.CopyFrom(b)
	if !equal(a, b) {
		t.Fatalf("CopyFrom gave %v, want %v", setBits(a), setBits(b))
	}
}

func TestString(t *testing.T) {
	b := New(8)
	b.Set(1)
	b.Set(6)
	if got := b.String(); got != "01000010" {
		t.Errorf("String = %q, want %q", got, "01000010")
	}
	big := New(1024)
	if len(big.String()) >= 1024 {
		t.Error("String of large bitmap not abbreviated")
	}
}

// Property: the set bits are exactly the distinct indices set.
func TestQuickPopCountMatchesDistinctSets(t *testing.T) {
	f := func(indices []uint16) bool {
		b := New(1 << 16)
		distinct := map[int]bool{}
		for _, idx := range indices {
			b.Set(int(idx))
			distinct[int(idx)] = true
		}
		return len(setBits(b)) == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: OR is commutative on the set of set-bits.
func TestQuickOrCommutative(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a1, b1 := New(256), New(256)
		for _, x := range xs {
			a1.Set(int(x))
		}
		for _, y := range ys {
			b1.Set(int(y))
		}
		a2, b2 := a1.Clone(), b1.Clone()
		a1.Or(b1) // a1 = a OR b
		b2.Or(a2) // b2 = b OR a
		return equal(a1, b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Get reflects exactly the bits Set since the last Reset, for random
// operations.
func TestQuickSetClearModel(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n)%500 + 1
		b := New(size)
		model := make(map[int]bool)
		for i := 0; i < 200; i++ {
			if rng.Intn(50) == 0 {
				b.Reset()
				clear(model)
				continue
			}
			idx := rng.Intn(size)
			b.Set(idx)
			model[idx] = true
		}
		for i := 0; i < size; i++ {
			if b.Get(i) != model[i] {
				return false
			}
		}
		return len(setBits(b)) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSet(b *testing.B) {
	bm := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Set(i & (1<<16 - 1))
	}
}

func BenchmarkOr(b *testing.B) {
	x := New(1 << 16)
	y := New(1 << 16)
	for i := 0; i < 1<<16; i += 3 {
		y.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

// TestOrWordsMatchesBitwise checks the word-at-a-time OrWords against setting the bits one by one, at every
// alignment of offset and length around word boundaries.
func TestOrWordsMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{1, 63, 64, 65, 128, 200} {
		for offset := 0; offset < size; offset++ {
			for _, n := range []int{0, 1, 31, 63, 64, 65, 127, 128, size - offset} {
				if n < 0 || offset+n > size {
					continue
				}
				words := make([]uint64, (n+63)/64+1)
				for i := range words {
					words[i] = rng.Uint64() // bits past n must be ignored
				}
				got, want := New(size), New(size)
				got.Set(rng.Intn(size))
				want.CopyFrom(got)
				got.OrWords(offset, words, n)
				for i := 0; i < n; i++ {
					if words[i/64]&(1<<uint(i%64)) != 0 {
						want.Set(offset + i)
					}
				}
				if !equal(got, want) {
					t.Fatalf("size %d: OrWords(%d, words, %d) = %v, bit by bit %v", size, offset, n, got, want)
				}
			}
		}
	}
}

// TestForEachSetEarlyStop breaks out of a walk over a bitmap's set bits
// after three and checks they are the three lowest.
func TestForEachSetEarlyStop(t *testing.T) {
	b := New(256)
	for i := 0; i < 256; i += 16 {
		b.Set(i)
	}
	var visited []int
	for i := range Ones(b.words, 0, b.Len()) {
		visited = append(visited, i)
		if len(visited) == 3 {
			break
		}
	}
	if len(visited) != 3 {
		t.Fatalf("visited %d bits, want 3", len(visited))
	}
	for i, v := range visited {
		if v != i*16 {
			t.Errorf("visited[%d] = %d, want %d", i, v, i*16)
		}
	}
}

// TestOnesMatchesBitByBit walks every [lo, hi) window of bitsets of
// word-straddling sizes with Ones and compares with testing each bit,
// including windows that end past the words and set bits beyond hi, and
// stops early.
func TestOnesMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{0, 1, 63, 64, 65, 130, 192} {
		for _, density := range []int{1, 3, 40} {
			words := make([]uint64, (size+63)/64)
			for i := 0; i < size; i++ {
				if rng.Intn(density) == 0 {
					words[i/64] |= 1 << uint(i%64)
				}
			}
			for lo := 0; lo <= size; lo++ {
				for _, hi := range []int{lo, lo + 1, lo + 7, lo + 64, lo + 100, size, size + 70} {
					var got, want []int
					for i := range Ones(words, lo, hi) {
						got = append(got, i)
					}
					for i := lo; i < hi && i < len(words)*64; i++ {
						if words[i/64]&(1<<uint(i%64)) != 0 {
							want = append(want, i)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("size %d density 1/%d: Ones over [%d,%d) = %v, bit by bit %v", size, density, lo, hi, got, want)
					}
					for i := range Ones(words, lo, hi) {
						if i != want[0] {
							t.Fatalf("size %d: first of Ones over [%d,%d) = %d, want %d", size, lo, hi, i, want[0])
						}
						break
					}
				}
			}
		}
	}
	for i := range Ones(nil, 0, 10) {
		t.Fatalf("Ones over no words yields %d", i)
	}
}

// BenchmarkOnes times one ascending walk over the set bits of a 12288-bit
// presence bitset holding 372 keys: the Gecko buffer of the benchmark device
// (4096 blocks, S = 2, V = 372) read back in key order at a flush.
func BenchmarkOnes(b *testing.B) {
	const size, keys = 12288, 372
	rng := rand.New(rand.NewSource(1))
	words := make([]uint64, size/64)
	for _, i := range rng.Perm(size)[:keys] {
		words[i/64] |= 1 << uint(i%64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		seen := 0
		for range Ones(words, 0, size) {
			seen++
		}
		if seen != keys {
			b.Fatalf("walk saw %d bits", seen)
		}
	}
}

// setBits lists b's set bits in ascending order.
func setBits(b *Bitmap) []int { return slices.Collect(Ones(b.words, 0, b.bits)) }

// equal reports whether a and b have the same size and bits.
func equal(a, b *Bitmap) bool { return a.bits == b.bits && slices.Equal(a.words, b.words) }
