package ftl

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"geckoftl/internal/flash"
)

var sweepDurability = flag.Bool("durability.sweep", false,
	"sweep scheduled crash points on the tiny geometry and print the smallest (seed, crash point) of every failure")

// The tiny geometry of the durability rows: 512 blocks of 64 pages over 8
// channels, one shard of which, 64 blocks and 2867 logical pages, runs with
// 1024 cached mapping entries. Its cache is 36 % of the shard.
const (
	tinyBlocks, tinyPagesPerBlock, tinyChannels = 512, 64, 8
	tinyCacheEntries                            = 1024
	// crashStreamOps bounds the stream a scheduled cut must fall in.
	crashStreamOps = 8192
)

// scheduledCrash replays one crash point on one shard of the tiny geometry:
// the seed's stream fills every logical page and overwrites as many again,
// then the scheduled cut is armed and the stream goes on with uniform writes,
// one in ten of them a trim instead when trims is set, until the power fails.
// PowerFail and Recover follow, and then CheckConsistency. It reports whether
// the cut fell inside the stream, and the error recovery or the audit ended
// with. A device-wide attempt count is a shard's own when the shard is the
// only one issuing IO, so a (seed, event) pair replays the same crash every
// time.
func scheduledCrash(seed int64, ev flash.FaultEvent, trims bool) (cut bool, err error) {
	cfg := flash.ScaledConfig(tinyBlocks)
	cfg.PagesPerBlock = tinyPagesPerBlock
	cfg.Channels = tinyChannels
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		return false, err
	}
	shard, err := dev.Partition(0, tinyBlocks/tinyChannels)
	if err != nil {
		return false, err
	}
	f, err := New(shard, GeckoFTLOptions(tinyCacheEntries))
	if err != nil {
		return false, err
	}
	rng := rand.New(rand.NewSource(seed))
	pages := f.LogicalPages()
	for i := int64(0); i < 2*pages; i++ {
		lpn := flash.LPN(i)
		if i >= pages {
			lpn = flash.LPN(rng.Int63n(pages))
		}
		if err := f.Write(lpn); err != nil {
			return false, fmt.Errorf("filling: %w", err)
		}
	}
	if err := dev.SetFaultPlan(flash.FaultPlan{Schedule: []flash.FaultEvent{ev}}); err != nil {
		return false, err
	}
	for range crashStreamOps {
		lpn := flash.LPN(rng.Int63n(pages))
		if trims && rng.Intn(10) == 0 {
			err = f.Trim(lpn)
		} else {
			err = f.Write(lpn)
		}
		if errors.Is(err, flash.ErrPowerFailed) {
			cut = true
			break
		}
		if err != nil {
			return false, fmt.Errorf("before the cut: %w", err)
		}
	}
	if !cut {
		return false, nil
	}
	if err := f.PowerFail(); err != nil {
		return true, err
	}
	if _, err := f.Recover(); err != nil {
		return true, err
	}
	return true, f.CheckConsistency()
}

// durabilityMessages are the failures ROADMAP item 1 lists: recovery's own
// errors and CheckConsistency's findings. A row is keyed by the first one its
// error contains.
var durabilityMessages = []string{
	"maps to unprogrammed physical page",
	"but the map says",
	"both map to physical page",
	"of unallocated block",
	"BVC underflow on block",
}

// durabilityMessage returns the known message err carries, or err's whole
// text.
func durabilityMessage(err error) string {
	for _, m := range durabilityMessages {
		if strings.Contains(err.Error(), m) {
			return m
		}
	}
	return err.Error()
}

// durabilityRow is one crash point on the tiny geometry and the message its
// failure carries, or carried until the bug was fixed.
type durabilityRow struct {
	seed    int64
	ev      flash.FaultEvent
	trims   bool
	message string
}

// name is the row's subtest name.
func (row durabilityRow) name() string {
	name := fmt.Sprintf("seed %d %v %d %s", row.seed, row.ev.Op, row.ev.AtCount, cutName(row.ev.Cut))
	if !row.trims {
		name += " " + streamName(false)
	}
	return name
}

// knownDurabilityBugs are crash points at which each open failure shows on
// the tiny geometry. The row is the earliest cut of the write-only stream
// that fails on seeds 1–4, the shortest reproducer of a failure without
// trims; the sweep, which ranks seeds first, prints seed 1's program 922 for
// its message. The change that fixes a bug moves its row to
// fixedDurabilityBugs.
var knownDurabilityBugs = []durabilityRow{
	{4, flash.FaultEvent{Op: flash.OpPageWrite, AtCount: 18, Cut: flash.CutAfter}, false, "but the map says"},
}

// fixedDurabilityBugs are crash points that failed, with their message, until
// the bug was fixed, and must now recover consistently. The three trim rows
// were the smallest failures of the trim stream by seed and then by attempt
// count, as TestKnownDurabilityBugsSweep found them: GeckoFTL reported a
// trim's cached before-image at once, or skipped it in the garbage
// collector, so the erase could take the page recovery maps to while the
// trim was only in RAM (deferTrimReport and migrateValidPage fix both).
var fixedDurabilityBugs = []durabilityRow{
	{1, flash.FaultEvent{Op: flash.OpErase, AtCount: 9, Cut: flash.CutBefore}, true, "but the map says"},
	{1, flash.FaultEvent{Op: flash.OpErase, AtCount: 15, Cut: flash.CutBefore}, true, "both map to physical page"},
	{1, flash.FaultEvent{Op: flash.OpErase, AtCount: 8, Cut: flash.CutAfter}, true, "maps to unprogrammed physical page"},
}

// TestKnownDurabilityBugs pins the open durability bugs as scheduled crashes:
// each row must still fail, with its message. A row that starts passing was
// fixed, or hidden by a change to the IO order; either way the table must
// change with it.
func TestKnownDurabilityBugs(t *testing.T) {
	for _, row := range knownDurabilityBugs {
		t.Run(row.name(), func(t *testing.T) {
			cut, err := scheduledCrash(row.seed, row.ev, row.trims)
			switch {
			case !cut:
				t.Fatalf("the power never failed: the stream no longer reaches attempt %d", row.ev.AtCount)
			case err == nil:
				t.Fatalf("recovered consistently; it failed with %q", row.message)
			case durabilityMessage(err) != row.message:
				t.Fatalf("failed with %v, want %q", err, row.message)
			}
		})
	}
}

// TestFixedDurabilityBugs replays the crash points of fixed bugs: each must
// still cut inside the stream and now recover consistently.
func TestFixedDurabilityBugs(t *testing.T) {
	for _, row := range fixedDurabilityBugs {
		t.Run(row.name(), func(t *testing.T) {
			cut, err := scheduledCrash(row.seed, row.ev, row.trims)
			switch {
			case !cut:
				t.Fatalf("the power never failed: the stream no longer reaches attempt %d", row.ev.AtCount)
			case err != nil:
				t.Fatalf("failed with %v; the fix for %q regressed", err, row.message)
			}
		})
	}
}

// TestKnownDurabilityBugsSweep regenerates knownDurabilityBugs: it replays
// every crash point of a bounded sweep — both streams, seeds, cuts before and
// after, and each program and erase count up to a bound — and prints, for
// every stream and failure message, the smallest (seed, count) that shows it.
// It runs only with -durability.sweep.
func TestKnownDurabilityBugsSweep(t *testing.T) {
	if !*sweepDurability {
		t.Skip("run with -durability.sweep")
	}
	type point struct {
		seed int64
		ev   flash.FaultEvent
	}
	type finding struct {
		trims   bool
		message string
	}
	first := map[finding]point{}
	var order []finding
	for _, trims := range []bool{true, false} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, bound := range []struct {
				op flash.Op
				k  uint64
			}{{flash.OpErase, 200}, {flash.OpPageWrite, 6000}} {
				for _, placement := range []flash.PowerCut{flash.CutBefore, flash.CutAfter} {
					for k := uint64(1); k <= bound.k; k++ {
						ev := flash.FaultEvent{Op: bound.op, AtCount: k, Cut: placement}
						cut, err := scheduledCrash(seed, ev, trims)
						if !cut {
							if err != nil {
								t.Fatalf("seed %d %+v: %v", seed, ev, err)
							}
							break
						}
						if err == nil {
							continue
						}
						f := finding{trims, durabilityMessage(err)}
						// Counts of one operation compare; the sweep's order
						// ranks seeds, then erases before programs.
						if p, ok := first[f]; !ok || seed == p.seed && ev.Op == p.ev.Op && k < p.ev.AtCount {
							if !ok {
								order = append(order, f)
							}
							first[f] = point{seed, ev}
							t.Logf("%s: seed %d %v %d %s: %v", streamName(trims), seed, bound.op, k, cutName(placement), err)
						}
					}
				}
			}
		}
	}
	for _, f := range order {
		p := first[f]
		fmt.Printf("\t{%d, flash.FaultEvent{Op: flash.%s, AtCount: %d, Cut: flash.%s}, %t, %q},\n",
			p.seed, opName(p.ev.Op), p.ev.AtCount, cutName(p.ev.Cut), f.trims, f.message)
	}
}

func streamName(trims bool) string {
	if trims {
		return "writes and trims"
	}
	return "writes only"
}

func opName(op flash.Op) string {
	if op == flash.OpErase {
		return "OpErase"
	}
	return "OpPageWrite"
}

func cutName(c flash.PowerCut) string {
	if c == flash.CutAfter {
		return "CutAfter"
	}
	return "CutBefore"
}
