package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"geckoftl/internal/flash"
)

// OpKind distinguishes writes, reads and trims in a workload stream.
type OpKind = flash.HostOp

// The operation kinds.
const (
	OpWrite = flash.HostWrite
	OpRead  = flash.HostRead
	OpTrim  = flash.HostTrim
)

// Op is one logical operation of a workload.
type Op struct {
	Kind OpKind
	Page flash.LPN
}

// Generator produces a stream of logical operations.
type Generator interface {
	// Next returns the next operation in the stream.
	Next() Op
	// Name identifies the workload in experiment output.
	Name() string
}

// Uniform generates uniformly random page updates over the logical address
// space: the paper's adversarial workload.
type Uniform struct {
	pages flash.LPN
	rng   *rand.Rand
}

// NewUniform creates a uniform random update workload over logicalPages
// pages. It returns an error if logicalPages is not positive.
func NewUniform(logicalPages int64, seed int64) (*Uniform, error) {
	if logicalPages <= 0 {
		return nil, fmt.Errorf("workload: logical pages %d must be positive", logicalPages)
	}
	return &Uniform{pages: flash.LPN(logicalPages), rng: rand.New(rand.NewSource(seed))}, nil
}

// MustNewUniform is NewUniform that panics on invalid parameters. It is used
// by tests and examples where the configuration is a literal.
func MustNewUniform(logicalPages int64, seed int64) *Uniform {
	u, err := NewUniform(logicalPages, seed)
	if err != nil {
		panic(err)
	}
	return u
}

// Next returns a write to a uniformly random logical page.
func (u *Uniform) Next() Op {
	return Op{Kind: OpWrite, Page: flash.LPN(u.rng.Int63n(int64(u.pages)))}
}

// Name implements Generator.
func (u *Uniform) Name() string { return "uniform" }

// Sequential generates writes that sweep the logical address space in order,
// wrapping around at the end. Sequential updates are the friendliest possible
// pattern for block-associative schemes and the best case for Logarithmic
// Gecko's buffer.
type Sequential struct {
	pages flash.LPN
	next  flash.LPN
}

// NewSequential creates a sequential update workload. It returns an error if
// logicalPages is not positive.
func NewSequential(logicalPages int64) (*Sequential, error) {
	if logicalPages <= 0 {
		return nil, fmt.Errorf("workload: logical pages %d must be positive", logicalPages)
	}
	return &Sequential{pages: flash.LPN(logicalPages)}, nil
}

// Next returns a write to the next logical page in sequence.
func (s *Sequential) Next() Op {
	op := Op{Kind: OpWrite, Page: s.next}
	s.next = (s.next + 1) % s.pages
	return op
}

// Name implements Generator.
func (s *Sequential) Name() string { return "sequential" }

// Zipfian generates writes with a Zipf-distributed popularity over the
// logical address space, modeling skewed database workloads where a small
// set of pages absorbs most updates.
type Zipfian struct {
	pages flash.LPN
	rng   *rand.Rand
	zipf  *rand.Zipf
}

// NewZipfian creates a Zipfian workload with the given skew parameter
// (s > 1; values around 1.1-1.5 are typical). Page popularity ranks are
// scattered over the address space with a pseudo-random permutation so that
// hot pages are not clustered in one translation page. It returns an error
// for a non-positive page count or a skew outside (1, inf).
func NewZipfian(logicalPages int64, skew float64, seed int64) (*Zipfian, error) {
	if logicalPages <= 0 {
		return nil, fmt.Errorf("workload: logical pages %d must be positive", logicalPages)
	}
	if skew <= 1 {
		return nil, fmt.Errorf("workload: zipf skew %g must be > 1", skew)
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipfian{
		pages: flash.LPN(logicalPages),
		rng:   rng,
		zipf:  rand.NewZipf(rng, skew, 1, uint64(logicalPages-1)),
	}, nil
}

// MustNewZipfian is NewZipfian that panics on invalid parameters.
func MustNewZipfian(logicalPages int64, skew float64, seed int64) *Zipfian {
	z, err := NewZipfian(logicalPages, skew, seed)
	if err != nil {
		panic(err)
	}
	return z
}

// scatter maps a popularity rank to a logical page with a multiplicative
// hash, spreading hot ranks across the address space (a full permutation
// would need 8 bytes per logical page).
func scatter(rank uint64, pages int64) flash.LPN {
	const multiplier = 0x9E3779B97F4A7C15
	return flash.LPN((rank * multiplier) % uint64(pages))
}

// Next returns a write to a Zipf-popular page.
func (z *Zipfian) Next() Op {
	rank := z.zipf.Uint64()
	return Op{Kind: OpWrite, Page: scatter(rank, int64(z.pages))}
}

// Name implements Generator.
func (z *Zipfian) Name() string { return "zipfian" }

// HotCold generates writes where a hot fraction of the address space receives
// a hot fraction of the updates (e.g. 20% of pages get 80% of writes).
type HotCold struct {
	pages          flash.LPN
	hotPages       flash.LPN
	hotProbability float64
	rng            *rand.Rand
}

// NewHotCold creates a hot/cold workload: hotFraction of the pages receive
// hotProbability of the writes. It returns an error for a non-positive page
// count or a fraction/probability outside (0,1).
func NewHotCold(logicalPages int64, hotFraction, hotProbability float64, seed int64) (*HotCold, error) {
	if logicalPages <= 0 {
		return nil, fmt.Errorf("workload: logical pages %d must be positive", logicalPages)
	}
	if hotFraction <= 0 || hotFraction >= 1 || hotProbability <= 0 || hotProbability >= 1 {
		return nil, fmt.Errorf("workload: hot fraction %g and probability %g must be in (0,1)", hotFraction, hotProbability)
	}
	return &HotCold{
		pages:          flash.LPN(logicalPages),
		hotPages:       flash.LPN(math.Max(1, float64(logicalPages)*hotFraction)),
		hotProbability: hotProbability,
		rng:            rand.New(rand.NewSource(seed)),
	}, nil
}

// Next returns a write, hot with the configured probability.
func (h *HotCold) Next() Op {
	if h.rng.Float64() < h.hotProbability {
		return Op{Kind: OpWrite, Page: flash.LPN(h.rng.Int63n(int64(h.hotPages)))}
	}
	coldPages := h.pages - h.hotPages
	if coldPages <= 0 {
		coldPages = 1
	}
	return Op{Kind: OpWrite, Page: h.hotPages + flash.LPN(h.rng.Int63n(int64(coldPages)))}
}

// Name implements Generator.
func (h *HotCold) Name() string { return "hot-cold" }

// Mixed wraps a write-pattern generator and interleaves reads at a given
// ratio, drawing read targets uniformly from the logical address space.
type Mixed struct {
	writes    Generator
	pages     flash.LPN
	readRatio float64
	rng       *rand.Rand
}

// NewMixed creates a mixed read/write workload. readRatio is the fraction of
// operations that are reads (0 <= readRatio < 1).
func NewMixed(writes Generator, logicalPages int64, readRatio float64, seed int64) (*Mixed, error) {
	if readRatio < 0 || readRatio >= 1 {
		return nil, fmt.Errorf("workload: read ratio %g must be in [0,1)", readRatio)
	}
	if logicalPages <= 0 {
		return nil, fmt.Errorf("workload: logical pages %d must be positive", logicalPages)
	}
	return &Mixed{writes: writes, pages: flash.LPN(logicalPages), readRatio: readRatio, rng: rand.New(rand.NewSource(seed))}, nil
}

// MustNewMixed is NewMixed that panics on invalid parameters.
func MustNewMixed(writes Generator, logicalPages int64, readRatio float64, seed int64) *Mixed {
	m, err := NewMixed(writes, logicalPages, readRatio, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Trimming wraps a write-pattern generator and interleaves host trims at a
// given fraction of the operation stream, drawing trim targets uniformly
// from the logical address space. It models a filesystem forwarding deletes
// as discards: every trimmed page is an invalid page the garbage collector
// gets for free, which is the knob the trim-sweep experiment turns.
type Trimming struct {
	inner        Generator
	pages        flash.LPN
	trimFraction float64
	rng          *rand.Rand
}

// NewTrimming creates a trimming workload: trimFraction of the operations
// are trims (0 <= trimFraction < 1), the rest come from the wrapped
// generator. It returns an error for a non-positive page count or a fraction
// outside [0,1).
func NewTrimming(inner Generator, logicalPages int64, trimFraction float64, seed int64) (*Trimming, error) {
	if logicalPages <= 0 {
		return nil, fmt.Errorf("workload: logical pages %d must be positive", logicalPages)
	}
	if trimFraction < 0 || trimFraction >= 1 {
		return nil, fmt.Errorf("workload: trim fraction %g must be in [0,1)", trimFraction)
	}
	return &Trimming{
		inner:        inner,
		pages:        flash.LPN(logicalPages),
		trimFraction: trimFraction,
		rng:          rand.New(rand.NewSource(seed)),
	}, nil
}

// MustNewTrimming is NewTrimming that panics on invalid parameters.
func MustNewTrimming(inner Generator, logicalPages int64, trimFraction float64, seed int64) *Trimming {
	tr, err := NewTrimming(inner, logicalPages, trimFraction, seed)
	if err != nil {
		panic(err)
	}
	return tr
}

// Next returns either a trim of a uniformly random page or the next
// operation of the wrapped generator.
func (tr *Trimming) Next() Op {
	if tr.trimFraction > 0 && tr.rng.Float64() < tr.trimFraction {
		return Op{Kind: OpTrim, Page: flash.LPN(tr.rng.Int63n(int64(tr.pages)))}
	}
	return tr.inner.Next()
}

// Name implements Generator.
func (tr *Trimming) Name() string {
	return fmt.Sprintf("trim(%s,f=%.0f%%)", tr.inner.Name(), tr.trimFraction*100)
}

// ByName constructs one of the named write workloads: "uniform" (or ""),
// "sequential", "zipfian" (skew 1.2) or "hotcold" (20% of pages take 80% of
// writes). The command-line tools and the sweep experiments route their
// workload flags through it so that a bad name is an error, not a panic.
func ByName(name string, logicalPages int64, seed int64) (Generator, error) {
	switch name {
	case "", "uniform":
		return NewUniform(logicalPages, seed)
	case "sequential":
		return NewSequential(logicalPages)
	case "zipfian":
		return NewZipfian(logicalPages, 1.2, seed)
	case "hotcold", "hot-cold":
		return NewHotCold(logicalPages, 0.2, 0.8, seed)
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (want uniform, sequential, zipfian or hotcold)", name)
	}
}

// Next returns either a read of a random page or the next write of the
// wrapped generator.
func (m *Mixed) Next() Op {
	if m.rng.Float64() < m.readRatio {
		return Op{Kind: OpRead, Page: flash.LPN(m.rng.Int63n(int64(m.pages)))}
	}
	op := m.writes.Next()
	op.Kind = OpWrite
	return op
}

// Name implements Generator.
func (m *Mixed) Name() string {
	return fmt.Sprintf("mixed(%s,r=%.0f%%)", m.writes.Name(), m.readRatio*100)
}

// Trace replays a recorded operation stream, cycling when it reaches the end.
type Trace struct {
	name string
	ops  []Op
	next int
}

// NewTrace creates a trace workload from an explicit operation list.
func NewTrace(name string, ops []Op) (*Trace, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("workload: trace %q is empty", name)
	}
	return &Trace{name: name, ops: append([]Op(nil), ops...)}, nil
}

// ParseTrace reads a trace in the textual format "R <page>" / "W <page>", one
// operation per line. Blank lines and lines starting with '#' are ignored.
func ParseTrace(name string, r io.Reader) (*Trace, error) {
	var ops []Op
	scanner := bufio.NewScanner(r)
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("workload: trace %q line %d: want \"R|W <page>\", got %q", name, line, text)
		}
		page, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || page < 0 {
			return nil, fmt.Errorf("workload: trace %q line %d: bad page %q", name, line, fields[1])
		}
		var kind OpKind
		switch strings.ToUpper(fields[0]) {
		case "R":
			kind = OpRead
		case "W":
			kind = OpWrite
		default:
			return nil, fmt.Errorf("workload: trace %q line %d: bad op %q", name, line, fields[0])
		}
		ops = append(ops, Op{Kind: kind, Page: flash.LPN(page)})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace %q: %w", name, err)
	}
	return NewTrace(name, ops)
}

// Next returns the next traced operation, cycling at the end.
func (t *Trace) Next() Op {
	op := t.ops[t.next]
	t.next = (t.next + 1) % len(t.ops)
	return op
}

// Name implements Generator.
func (t *Trace) Name() string { return t.name }
