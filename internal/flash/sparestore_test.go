package flash

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// The spare-store oracle drives a Device, directly and through partitions,
// side by side with a reference that keeps a []SpareArea per block and stamps
// it at program time: the caller's fields, the write sequence number of the
// plane the program came through (each partition has its own, and the
// Device's own IO another), and the block's erase count as it stood when the
// page was programmed. Programs (in order, gapped, below the write pointer), erases,
// page reads, scripted program and erase faults, worn-out retirement and power
// cuts of the device and of each partition are mixed at random; every
// WritePage, EraseBlock, ReadPage and ReadSpare must answer exactly as the
// reference does, and so must the per-block bookkeeping (write pointer, erase
// count, bad block). Scheduled power cuts before or after a program or an
// erase must drop the power domain the attempt came through, and only it. The
// device stores a page's Logical in 4 bytes, so a program whose Logical lies
// outside [InvalidLPN, 2³¹−1] must be refused with ErrOutOfRange before it
// counts as an attempt, and the largest value must round-trip.

// spareScript is where a run draws its choices from: a seeded generator, or
// the bytes of a fuzz input.
type spareScript interface {
	// pick returns a choice in [0, n).
	pick(n int) int
	// spent reports that the script has nothing more to say.
	spent() bool
}

// randScript draws from a seeded generator and is never spent.
type randScript struct{ rng *rand.Rand }

func (s randScript) pick(n int) int { return s.rng.Intn(n) }
func (s randScript) spent() bool    { return false }

// byteScript reads its choices from a byte string, one byte each (no choice
// is among more than 256), and reads zeros once the bytes run out.
type byteScript struct{ data []byte }

func (s *byteScript) pick(n int) int {
	if len(s.data) == 0 {
		return 0
	}
	v := int(s.data[0]) % n
	s.data = s.data[1:]
	return v
}

func (s *byteScript) spent() bool { return len(s.data) == 0 }

// spareStoreCase is one configuration of the oracle: strict or gapped
// programs, the device alone or carved into partitions, an erase budget, and
// the scripted faults (1-based attempt counts, as FaultEvent.AtCount) and
// power cuts.
type spareStoreCase struct {
	strict       bool
	partitions   bool
	maxErase     int
	failPrograms []uint64
	failErases   []uint64
	cuts         []FaultEvent
}

// spareStoreCaseOf decodes a case from four flag bits; the erase budget and
// the fault counts, when bits 2 and 3 ask for them, come from the script.
func spareStoreCaseOf(flags int, s spareScript) spareStoreCase {
	c := spareStoreCase{strict: flags&1 == 0, partitions: flags&2 != 0}
	if flags&4 != 0 {
		c.maxErase = 1 + s.pick(40)
	}
	if flags&8 != 0 {
		var n uint64
		for range 4 {
			n += 1 + uint64(s.pick(24))
			c.failPrograms = append(c.failPrograms, n)
		}
		n = 0
		for range 2 {
			n += 1 + uint64(s.pick(8))
			c.failErases = append(c.failErases, n)
		}
		// A cut may fall on a faulted attempt: before it, the pulse never
		// runs; after it, the failure stands.
		c.cuts = []FaultEvent{
			{Op: OpPageWrite, AtCount: 1 + uint64(s.pick(120)), Cut: CutBefore + PowerCut(s.pick(2))},
			{Op: OpErase, AtCount: 1 + uint64(s.pick(24)), Cut: CutBefore + PowerCut(s.pick(2))},
		}
	}
	return c
}

func (c spareStoreCase) String() string {
	return fmt.Sprintf("strict=%v partitions=%v maxErase=%d programFaults=%v eraseFaults=%v cuts=%v",
		c.strict, c.partitions, c.maxErase, c.failPrograms, c.failErases, c.cuts)
}

// refBlock is the reference's view of one block.
type refBlock struct {
	spares     []SpareArea
	bad        []bool
	wp         int
	eraseCount int
	retired    bool
}

// spareRef is the reference device.
type spareRef struct {
	c      spareStoreCase
	ppb    int
	blocks []refBlock
	// programs and erases count the attempts the fault plan numbers.
	programs, erases uint64
}

func newSpareRef(c spareStoreCase, cfg Config) *spareRef {
	r := &spareRef{c: c, ppb: cfg.PagesPerBlock, blocks: make([]refBlock, cfg.Blocks)}
	for i := range r.blocks {
		r.blocks[i].spares = make([]SpareArea, cfg.PagesPerBlock)
		r.blocks[i].bad = make([]bool, cfg.PagesPerBlock)
	}
	return r
}

// cutAt returns the cut scheduled around the n'th attempt of op.
func (r *spareRef) cutAt(op Op, n uint64) PowerCut {
	for _, ev := range r.c.cuts {
		if ev.Op == op && ev.AtCount == n {
			return ev.Cut
		}
	}
	return NoCut
}

// program answers as the device does for a program through a plane whose
// write sequence is writeSeq, and reports in cut whether the attempt dropped
// the power domain it came through.
func (r *spareRef) program(writeSeq *uint64, block BlockID, off int, spare SpareArea) (seq uint64, cut bool, err error) {
	blk := &r.blocks[block]
	switch {
	case spare.Logical < InvalidLPN || spare.Logical > math.MaxInt32, *writeSeq >= 1<<56-1:
		return 0, false, ErrOutOfRange
	case blk.retired:
		return 0, false, ErrProgramFailed
	case off < blk.wp:
		return 0, false, ErrPageNotFree
	case r.c.strict && off != blk.wp:
		return 0, false, ErrNonSequentialWrite
	}
	r.programs++
	switch r.cutAt(OpPageWrite, r.programs) {
	case CutBefore:
		return 0, true, ErrPowerFailed
	case CutAfter:
		cut = true
	}
	blk.wp = off + 1
	if slices.Contains(r.c.failPrograms, r.programs) {
		blk.bad[off] = true
		return 0, cut, ErrProgramFailed
	}
	*writeSeq++
	spare.WriteSeq = *writeSeq
	spare.EraseCount = uint32(blk.eraseCount)
	blk.spares[off] = spare
	return *writeSeq, cut, nil
}

// erase answers as the device does, and reports cuts as program does.
func (r *spareRef) erase(block BlockID) (cut bool, err error) {
	blk := &r.blocks[block]
	if r.c.maxErase > 0 && blk.eraseCount >= r.c.maxErase {
		blk.retired = true
		return false, ErrWornOut
	}
	if blk.retired {
		return false, ErrEraseFailed
	}
	r.erases++
	switch r.cutAt(OpErase, r.erases) {
	case CutBefore:
		return true, ErrPowerFailed
	case CutAfter:
		cut = true
	}
	if slices.Contains(r.c.failErases, r.erases) {
		blk.retired = true
		return cut, ErrEraseFailed
	}
	blk.eraseCount++
	blk.wp = 0
	clear(blk.spares)
	clear(blk.bad)
	return cut, nil
}

func (r *spareRef) readSpare(block BlockID, off int) (SpareArea, bool) {
	blk := &r.blocks[block]
	if off >= blk.wp || blk.bad[off] {
		return SpareArea{}, false
	}
	return blk.spares[off], true
}

// spareStorePlane is a plane under test: the device or one of its
// partitions, with the block range it covers, its own power domain and its
// own write sequence.
type spareStorePlane struct {
	spareStoreIO
	base   BlockID
	blocks int
	// up is the plane's own domain; the device's rail is plane 0's.
	up bool
	// writeSeq is the reference's copy of the plane's write sequence.
	writeSeq uint64
}

// spareStoreIO is what the test calls on a plane, which the Device and a
// Partition both have.
type spareStoreIO interface {
	WritePage(ppn PPN, spare SpareArea, p Purpose) (uint64, error)
	ReadPage(ppn PPN, p Purpose) error
	ReadSpare(ppn PPN, p Purpose) (SpareArea, bool, error)
	EraseBlock(block BlockID, p Purpose) error
	PowerFail()
	PowerOn()
}

// writeSeq is the write sequence a plane stamps its next program after.
func writeSeq(io spareStoreIO) uint64 {
	if d, ok := io.(*Device); ok {
		return d.writeSeq.Load()
	}
	return io.(*Partition).WriteSeq()
}

// sameErr reports whether got is want (nil for nil).
func sameErr(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// runSpareStore drives one case for at most steps operations, or until the
// script is spent.
func runSpareStore(t testing.TB, c spareStoreCase, s spareScript, steps int) {
	t.Helper()
	cfg := ScaledConfig(8)
	cfg.PagesPerBlock = 8
	cfg.Channels = 2
	cfg.StrictSequentialWrites = c.strict
	cfg.MaxEraseCount = c.maxErase
	dev := MustNewDevice(cfg)
	// facts answers the per-block facts the sweep compares. It is carved
	// first, so the partitions below join its latch.
	facts := whole(t, dev)
	var plan FaultPlan
	for _, n := range c.failPrograms {
		plan.Schedule = append(plan.Schedule, FaultEvent{Op: OpPageWrite, AtCount: n})
	}
	for _, n := range c.failErases {
		plan.Schedule = append(plan.Schedule, FaultEvent{Op: OpErase, AtCount: n})
	}
	plan.Schedule = append(plan.Schedule, c.cuts...)
	if err := dev.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	planes := []*spareStorePlane{{spareStoreIO: dev, blocks: cfg.Blocks, up: true}}
	if c.partitions {
		// One partition inside die 0, one straddling both dies.
		for _, r := range [][2]int{{0, 3}, {3, 5}} {
			p, err := dev.Partition(BlockID(r[0]), r[1])
			if err != nil {
				t.Fatal(err)
			}
			planes = append(planes, &spareStorePlane{spareStoreIO: p, base: BlockID(r[0]), blocks: r[1], up: true})
		}
	}
	ref := newSpareRef(c, cfg)
	ppb := cfg.PagesPerBlock
	powered := func(p *spareStorePlane) bool { return p.up && planes[0].up }
	// logical is a program's Logical: two times in three InvalidLPN, a small
	// page or the largest the device holds; otherwise one outside
	// [InvalidLPN, 2³¹−1], above or below, which the device must refuse.
	logical := func() LPN {
		switch s.pick(6) {
		case 0:
			return InvalidLPN
		case 1, 4:
			return LPN(s.pick(256))
		case 2:
			return 1<<40 + LPN(s.pick(256))
		case 3:
			return math.MaxInt32
		default:
			return InvalidLPN - 1 - LPN(s.pick(256))
		}
	}
	// word is a Tag or Aux value: zero half the time, so that blocks mix
	// pages that set them with pages that do not.
	word := func() uint64 {
		switch s.pick(4) {
		case 0, 1:
			return 0
		case 2:
			return uint64(1 + s.pick(16))
		default:
			return ^uint64(s.pick(256))
		}
	}
	checkSpare := func(step int, p *spareStorePlane, b BlockID, off int) {
		t.Helper()
		got, ok, err := p.ReadSpare(PPNOf(b, off, ppb), PurposeRecovery)
		var want SpareArea
		var wantOK bool
		var wantErr error
		if powered(p) {
			want, wantOK = ref.readSpare(p.base+b, off)
		} else {
			wantErr = ErrPowerFailed
		}
		if got != want || ok != wantOK || !sameErr(err, wantErr) {
			t.Fatalf("step %d, %s: ReadSpare(%d:%d) = (%+v, %v, %v), want (%+v, %v, %v)",
				step, c, p.base+b, off, got, ok, err, want, wantOK, wantErr)
		}
	}
	sweep := func(step int) {
		t.Helper()
		for b := range BlockID(cfg.Blocks) {
			for off := range ppb {
				checkSpare(step, planes[0], b, off)
			}
			if !planes[0].up {
				continue
			}
			blk := &ref.blocks[b]
			wp, _ := facts.WritePointer(b)
			ec, _ := facts.EraseCount(b)
			bad, _ := facts.BadBlock(b)
			if wp != blk.wp || ec != blk.eraseCount || bad != blk.retired {
				t.Fatalf("step %d, %s: block %d has write pointer %d, erase count %d, bad %v; want %d, %d, %v",
					step, c, b, wp, ec, bad, blk.wp, blk.eraseCount, blk.retired)
			}
		}
	}

	for step := 0; step < steps && !s.spent(); step++ {
		p := planes[s.pick(len(planes))]
		b := BlockID(s.pick(p.blocks))
		switch op := s.pick(100); {
		case op < 50:
			blk := &ref.blocks[p.base+b]
			off := blk.wp
			switch s.pick(8) {
			case 0:
				off = s.pick(ppb)
			case 1, 2:
				off += s.pick(3)
			}
			off = min(off, ppb-1)
			// The fields are drawn in order; the device must overwrite the
			// two it stamps, whatever the caller put there.
			spare := SpareArea{
				Logical:   logical(),
				BlockType: []BlockType{BlockFree, BlockUser, BlockTranslation, BlockGecko, 200}[s.pick(5)],
				Tag:       word(),
				Aux:       word(),
			}
			junk := s.pick(3)
			spare.WriteSeq, spare.EraseCount = uint64(junk), uint32(junk)
			wantSeq, cut, wantErr := uint64(0), false, error(ErrPowerFailed)
			if powered(p) {
				wantSeq, cut, wantErr = ref.program(&p.writeSeq, p.base+b, off, spare)
			}
			seq, err := p.WritePage(PPNOf(b, off, ppb), spare, PurposeUserWrite)
			if seq != wantSeq || !sameErr(err, wantErr) || writeSeq(p.spareStoreIO) != p.writeSeq {
				t.Fatalf("step %d, %s: WritePage(%d:%d, %+v) = (%d, %v) leaving the plane's sequence at %d, want (%d, %v) and %d",
					step, c, p.base+b, off, spare, seq, err, writeSeq(p.spareStoreIO), wantSeq, wantErr, p.writeSeq)
			}
			if cut {
				p.up = false
			}
			checkSpare(step, p, b, off)
		case op < 62:
			cut, wantErr := false, error(ErrPowerFailed)
			if powered(p) {
				cut, wantErr = ref.erase(p.base + b)
			}
			if err := p.EraseBlock(b, PurposeGCErase); !sameErr(err, wantErr) {
				t.Fatalf("step %d, %s: EraseBlock(%d) = %v, want %v", step, c, p.base+b, err, wantErr)
			}
			if cut {
				p.up = false
			}
		case op < 74:
			checkSpare(step, p, b, s.pick(ppb))
		case op < 82:
			// A full-page read: it changes the block's read-disturb count,
			// which must not leak into the spares.
			off := s.pick(ppb)
			wantErr := error(ErrPowerFailed)
			if powered(p) {
				wantErr = nil
				if _, ok := ref.readSpare(p.base+b, off); !ok {
					wantErr = ErrPageNotWritten
				}
			}
			if err := p.ReadPage(PPNOf(b, off, ppb), PurposeUserRead); !sameErr(err, wantErr) {
				t.Fatalf("step %d, %s: ReadPage(%d:%d) = %v, want %v", step, c, p.base+b, off, err, wantErr)
			}
		case op < 86:
			p.PowerFail()
			p.up = false
		case op < 94:
			p.PowerOn()
			p.up = true
		default:
			sweep(step)
		}
	}
	for _, p := range planes {
		p.PowerOn()
		p.up = true
	}
	sweep(steps)
}

// TestSpareStoreMatchesReference runs every combination of the case flags
// (strict or gapped programs, device or partitions, an erase budget or none,
// scripted faults and cuts or none) on two seeds.
func TestSpareStoreMatchesReference(t *testing.T) {
	for flags := range 16 {
		for seed := int64(1); seed <= 2; seed++ {
			s := randScript{rand.New(rand.NewSource(seed*16 + int64(flags)))}
			c := spareStoreCaseOf(flags, s)
			t.Run(fmt.Sprintf("flags=%d/seed=%d", flags, seed), func(t *testing.T) {
				runSpareStore(t, c, s, 3000)
			})
		}
	}
}

// FuzzSpareStore is the same oracle with the case and every operation read
// from the fuzz input, one byte a choice: the first byte holds the case flags
// (bit 0 gapped programs, bit 1 partitions, bit 2 an erase budget, bit 3
// scripted faults and cuts), the bytes the flags ask for follow, then the
// operations.
// The seed corpus in testdata/fuzz/FuzzSpareStore writes user, translation,
// Gecko and undefined-type pages, mixes pages with and without Tag and Aux on
// one block, and crosses erases, faults, retirement and a power cut; CI runs
// it with a short -fuzztime smoke.
func FuzzSpareStore(f *testing.F) {
	for i, flags := range []byte{0, 1, 2, 4, 8, 10, 15} {
		data := make([]byte, 512)
		rand.New(rand.NewSource(int64(i + 1))).Read(data)
		data[0] = flags
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteScript{data: data}
		runSpareStore(t, spareStoreCaseOf(s.pick(16), s), s, len(data))
	})
}

// TestSpareImageWidth pins what the device keeps of a page's spare area on
// every page: a 4-byte logical page and an 8-byte write stamp.
func TestSpareImageWidth(t *testing.T) {
	var d Device
	if got := unsafe.Sizeof(d.logical[0]) + unsafe.Sizeof(d.stamp[0]); got != 12 {
		t.Errorf("the flash image takes %d bytes a page, want 12", got)
	}
}

// TestWriteSeqLimit drives the write sequence to the largest value a stamp
// holds beside its block type: that program round-trips both, and the next
// one is refused before it counts as an attempt or costs device time.
func TestWriteSeqLimit(t *testing.T) {
	cfg := testConfig(2)
	cfg.PagesPerBlock = 4
	d := MustNewDevice(cfg)
	w := whole(t, d)
	if err := d.SetFaultPlan(FaultPlan{Schedule: []FaultEvent{{Op: OpPageWrite, AtCount: 2, Cut: CutBefore}}}); err != nil {
		t.Fatal(err)
	}
	d.writeSeq.Store(1<<56 - 2)
	want := SpareArea{Logical: math.MaxInt32, WriteSeq: 1<<56 - 1, BlockType: 200}
	seq, err := d.WritePage(0, want, PurposeUserWrite)
	if err != nil || seq != want.WriteSeq {
		t.Fatalf("WritePage at sequence 2⁵⁶−2 = (%d, %v), want (%d, nil)", seq, err, want.WriteSeq)
	}
	got, ok, err := d.ReadSpare(0, PurposeRecovery)
	if err != nil || !ok || got != want {
		t.Fatalf("ReadSpare = (%+v, %v, %v), want (%+v, true, nil)", got, ok, err, want)
	}
	before := d.SimulatedTime()
	if seq, err := d.WritePage(1, SpareArea{Logical: 1, BlockType: BlockUser}, PurposeUserWrite); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WritePage past sequence 2⁵⁶−1 = (%d, %v), want ErrOutOfRange", seq, err)
	}
	if d.SimulatedTime() != before || d.opSeq[OpPageWrite].Load() != 1 || !w.Powered() {
		t.Errorf("the refused program cost %v, counted %d attempts and left power %v; want 0, 1 and on",
			d.SimulatedTime()-before, d.opSeq[OpPageWrite].Load(), w.Powered())
	}
	if wp, _ := w.WritePointer(0); wp != 1 {
		t.Errorf("write pointer %d after the refusal, want 1", wp)
	}
}
