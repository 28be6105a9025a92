package workload

import (
	"strings"
	"testing"
	"testing/quick"

	"geckoftl/internal/flash"
)

func TestUniformStaysInRangeAndCoversSpace(t *testing.T) {
	const pages = 1000
	u := MustNewUniform(pages, 1)
	if u.Name() != "uniform" {
		t.Errorf("Name = %q", u.Name())
	}
	seen := make(map[flash.LPN]bool)
	for i := 0; i < 20000; i++ {
		op := u.Next()
		if op.Kind != OpWrite {
			t.Fatalf("uniform produced a %v", op.Kind)
		}
		if op.Page < 0 || op.Page >= pages {
			t.Fatalf("page %d out of range", op.Page)
		}
		seen[op.Page] = true
	}
	// With 20000 draws over 1000 pages, essentially every page is touched.
	if len(seen) < pages*9/10 {
		t.Errorf("uniform touched only %d of %d pages", len(seen), pages)
	}
}

func TestUniformDeterministicPerSeed(t *testing.T) {
	a, b := MustNewUniform(100, 42), MustNewUniform(100, 42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := MustNewUniform(100, 43)
	same := true
	a = MustNewUniform(100, 42)
	for i := 0; i < 100; i++ {
		if a.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestConstructorErrorsOnBadParameters(t *testing.T) {
	cases := []struct {
		name string
		make func() error
	}{
		{"uniform zero pages", func() error { _, err := NewUniform(0, 1); return err }},
		{"sequential negative pages", func() error { _, err := NewSequential(-1); return err }},
		{"zipfian zero pages", func() error { _, err := NewZipfian(0, 1.2, 1); return err }},
		{"zipfian skew 1.0", func() error { _, err := NewZipfian(100, 1.0, 1); return err }},
		{"hotcold zero pages", func() error { _, err := NewHotCold(0, 0.2, 0.8, 1); return err }},
		{"hotcold zero fraction", func() error { _, err := NewHotCold(100, 0, 0.8, 1); return err }},
		{"hotcold probability 1.0", func() error { _, err := NewHotCold(100, 0.2, 1.0, 1); return err }},
		{"mixed zero pages", func() error { _, err := NewMixed(MustNewUniform(10, 1), 0, 0.5, 1); return err }},
		{"mixed read ratio 1.0", func() error { _, err := NewMixed(MustNewUniform(10, 1), 10, 1.0, 1); return err }},
		{"unknown name", func() error { _, err := ByName("bogus", 100, 1); return err }},
		{"byname zero pages", func() error { _, err := ByName("uniform", 0, 1); return err }},
	}
	for _, c := range cases {
		if err := c.make(); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestMustConstructorsPanicOnBadParameters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewUniform(0) did not panic")
		}
	}()
	MustNewUniform(0, 1)
}

func TestByNameBuildsEveryWorkload(t *testing.T) {
	for name, want := range map[string]string{
		"":           "uniform",
		"uniform":    "uniform",
		"sequential": "sequential",
		"zipfian":    "zipfian",
		"hotcold":    "hot-cold",
	} {
		g, err := ByName(name, 1000, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if g.Name() != want {
			t.Errorf("ByName(%q).Name() = %q, want %q", name, g.Name(), want)
		}
		for i := 0; i < 100; i++ {
			if op := g.Next(); op.Page < 0 || op.Page >= 1000 {
				t.Fatalf("ByName(%q) page %d out of range", name, op.Page)
			}
		}
	}
}

func TestSequentialWrapsAround(t *testing.T) {
	s, err := NewSequential(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []flash.LPN{0, 1, 2, 0, 1}
	for i, w := range want {
		op := s.Next()
		if op.Page != w || op.Kind != OpWrite {
			t.Errorf("op %d = %+v, want write of %d", i, op, w)
		}
	}
	if s.Name() != "sequential" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestZipfianIsSkewedAndInRange(t *testing.T) {
	const pages = 10000
	z := MustNewZipfian(pages, 1.3, 7)
	counts := make(map[flash.LPN]int)
	const draws = 50000
	for i := 0; i < draws; i++ {
		op := z.Next()
		if op.Page < 0 || op.Page >= pages {
			t.Fatalf("page %d out of range", op.Page)
		}
		counts[op.Page]++
	}
	// Skew: the most popular page must receive far more than the uniform
	// share of draws.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniformShare := draws / pages
	if max < 20*uniformShare {
		t.Errorf("most popular page got %d draws, uniform share is %d; not skewed enough", max, uniformShare)
	}
	if z.Name() != "zipfian" {
		t.Errorf("Name = %q", z.Name())
	}
}

func TestHotColdSkew(t *testing.T) {
	const pages = 1000
	h, err := NewHotCold(pages, 0.2, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		op := h.Next()
		if op.Page < 0 || op.Page >= pages {
			t.Fatalf("page %d out of range", op.Page)
		}
		if op.Page < pages/5 {
			hot++
		}
	}
	frac := float64(hot) / draws
	if frac < 0.75 || frac > 0.9 {
		t.Errorf("hot fraction = %.3f, want about 0.8", frac)
	}
	if h.Name() != "hot-cold" {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestMixedReadRatio(t *testing.T) {
	m := MustNewMixed(MustNewUniform(500, 1), 500, 0.3, 2)
	reads := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		op := m.Next()
		if op.Page < 0 || op.Page >= 500 {
			t.Fatalf("page %d out of range", op.Page)
		}
		if op.Kind == OpRead {
			reads++
		}
	}
	frac := float64(reads) / draws
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("read fraction = %.3f, want about 0.3", frac)
	}
	if !strings.Contains(m.Name(), "uniform") {
		t.Errorf("Name = %q, want to mention wrapped generator", m.Name())
	}
}

func TestTraceReplayAndCycle(t *testing.T) {
	tr, err := NewTrace("t", []Op{{OpWrite, 1}, {OpRead, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.ops) != 2 {
		t.Errorf("Len = %d", len(tr.ops))
	}
	got := []Op{tr.Next(), tr.Next(), tr.Next()}
	if got[0] != (Op{OpWrite, 1}) || got[1] != (Op{OpRead, 2}) || got[2] != (Op{OpWrite, 1}) {
		t.Errorf("trace replay = %+v", got)
	}
	if _, err := NewTrace("empty", nil); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestParseTrace(t *testing.T) {
	input := `# comment
W 10
R 20

w 30
`
	tr, err := ParseTrace("test", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.ops) != 3 {
		t.Fatalf("Len = %d, want 3", len(tr.ops))
	}
	ops := []Op{tr.Next(), tr.Next(), tr.Next()}
	want := []Op{{OpWrite, 10}, {OpRead, 20}, {OpWrite, 30}}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
	if tr.Name() != "test" {
		t.Errorf("Name = %q", tr.Name())
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"X 10",
		"W",
		"W abc",
		"W -5",
		"W 1 2",
	}
	for _, c := range cases {
		if _, err := ParseTrace("bad", strings.NewReader(c)); err == nil {
			t.Errorf("ParseTrace accepted %q", c)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if OpWrite.String() != "write" || OpRead.String() != "read" {
		t.Error("OpKind strings wrong")
	}
}

// Property: every generator keeps its pages within the configured logical
// address space.
func TestQuickGeneratorsStayInRange(t *testing.T) {
	f := func(seed int64, pagesRaw uint16) bool {
		pages := int64(pagesRaw)%5000 + 10
		seq, err := NewSequential(pages)
		if err != nil {
			return false
		}
		hotCold, err := NewHotCold(pages, 0.25, 0.75, seed)
		if err != nil {
			return false
		}
		gens := []Generator{
			MustNewUniform(pages, seed),
			seq,
			MustNewZipfian(pages, 1.2, seed),
			hotCold,
			MustNewMixed(MustNewUniform(pages, seed), pages, 0.5, seed),
		}
		for _, g := range gens {
			for i := 0; i < 200; i++ {
				op := g.Next()
				if op.Page < 0 || op.Page >= flash.LPN(pages) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTrimmingGenerator(t *testing.T) {
	inner := MustNewUniform(1024, 1)
	tr := MustNewTrimming(inner, 1024, 0.25, 2)
	trims, writes := 0, 0
	for i := 0; i < 10000; i++ {
		op := tr.Next()
		switch op.Kind {
		case OpTrim:
			trims++
		case OpWrite:
			writes++
		default:
			t.Fatalf("unexpected op kind %v", op.Kind)
		}
		if op.Page < 0 || op.Page >= 1024 {
			t.Fatalf("page %d out of range", op.Page)
		}
	}
	frac := float64(trims) / float64(trims+writes)
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("trim fraction %.3f far from configured 0.25", frac)
	}
	if _, err := NewTrimming(inner, 1024, 1.0, 3); err == nil {
		t.Error("trim fraction 1.0 accepted")
	}
	if _, err := NewTrimming(inner, 0, 0.1, 3); err == nil {
		t.Error("zero logical pages accepted")
	}
}

func TestSplitBatchThreeWay(t *testing.T) {
	ops := []Op{
		{Kind: OpWrite, Page: 1},
		{Kind: OpRead, Page: 2},
		{Kind: OpTrim, Page: 3},
		{Kind: OpWrite, Page: 4},
		{Kind: OpTrim, Page: 5},
	}
	reads, writes, trims := SplitBatch(ops)
	if len(reads) != 1 || reads[0] != 2 {
		t.Errorf("reads = %v", reads)
	}
	if len(writes) != 2 || writes[0] != 1 || writes[1] != 4 {
		t.Errorf("writes = %v", writes)
	}
	if len(trims) != 2 || trims[0] != 3 || trims[1] != 5 {
		t.Errorf("trims = %v", trims)
	}
}
