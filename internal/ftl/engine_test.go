package ftl

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"geckoftl/internal/flash"
)

// engineTestDevice builds a multi-channel device small enough for tests but
// large enough that garbage collection runs in every shard.
func engineTestDevice(t *testing.T, blocks, channels int) *flash.Device {
	t.Helper()
	cfg := flash.ScaledConfig(blocks)
	cfg.PagesPerBlock = 16
	cfg.PageSize = 512
	cfg.Channels = channels
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestEngineRouting(t *testing.T) {
	dev := engineTestDevice(t, 128, 4)
	e, err := NewEngine(dev, GeckoFTLOptions(128), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4 (one per channel)", e.Shards())
	}
	wantLP := 4 * e.Shard(0).LogicalPages()
	if e.LogicalPages() != wantLP {
		t.Fatalf("LogicalPages() = %d, want %d", e.LogicalPages(), wantLP)
	}
	// Consecutive LPNs stripe across shards.
	for lpn := flash.LPN(0); lpn < 8; lpn++ {
		s, local, err := e.shardOf(lpn)
		if err != nil {
			t.Fatal(err)
		}
		if s != int(lpn)%4 || local != lpn/4 {
			t.Fatalf("shardOf(%d) = (%d,%d), want (%d,%d)", lpn, s, local, int(lpn)%4, lpn/4)
		}
	}
	if err := e.Write(flash.LPN(e.LogicalPages())); err == nil {
		t.Fatal("expected out-of-range write to fail")
	}
	if err := e.WriteBatch(context.Background(), []flash.LPN{0, -1}); err == nil {
		t.Fatal("expected out-of-range batch to fail")
	}
	if err := e.WriteBatch(context.Background(), []flash.LPN{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.ReadBatch(context.Background(), []flash.LPN{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().LogicalWrites; got != 4 {
		t.Fatalf("aggregated LogicalWrites = %d, want 4", got)
	}
	if got := e.Stats().LogicalReads; got != 4 {
		t.Fatalf("aggregated LogicalReads = %d, want 4", got)
	}
}

// TestEngineSingleShardMatchesFTL pins the engine's sharding to be a pure
// routing layer: with one shard it must behave exactly like a plain FTL over
// the same device, operation for operation.
func TestEngineSingleShardMatchesFTL(t *testing.T) {
	const writes = 3000
	run := func(drive func(lpn flash.LPN) error, logicalPages int64) {
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < writes; i++ {
			if err := drive(flash.LPN(rng.Int63n(logicalPages))); err != nil {
				t.Fatal(err)
			}
		}
	}

	engDev := engineTestDevice(t, 128, 1)
	e, err := NewEngine(engDev, GeckoFTLOptions(128), 1)
	if err != nil {
		t.Fatal(err)
	}
	run(e.Write, e.LogicalPages())

	ftlDev := engineTestDevice(t, 128, 1)
	f, err := New(wholeDevice(t, ftlDev), GeckoFTLOptions(128))
	if err != nil {
		t.Fatal(err)
	}
	run(f.Write, f.LogicalPages())

	if e.Stats() != f.Stats() {
		t.Errorf("engine stats %+v != ftl stats %+v", e.Stats(), f.Stats())
	}
	if got, want := engDev.SimulatedTime(), ftlDev.SimulatedTime(); got != want {
		t.Errorf("engine device time %v != ftl device time %v", got, want)
	}
}

// TestEngineBatchHammer is the concurrency test the engine exists for:
// multiple goroutines issue overlapping ReadBatch/WriteBatch calls (enough
// writes that every shard's garbage collector runs repeatedly), and after
// quiescing, every shard's translation map must still be consistent with the
// flash contents. Run with -race.
func TestEngineBatchHammer(t *testing.T) {
	for _, scheme := range []struct {
		name string
		opts Options
	}{
		{"gecko", GeckoFTLOptions(256)},
		{"dftl", DFTLOptions(256)},
	} {
		t.Run(scheme.name, func(t *testing.T) {
			dev := engineTestDevice(t, 256, 4)
			e, err := NewEngine(dev, scheme.opts, 4)
			if err != nil {
				t.Fatal(err)
			}
			lp := e.LogicalPages()

			// Fill the device past capacity single-threaded so that the
			// hammer phase below runs against steady-state GC.
			warm := rand.New(rand.NewSource(7))
			batch := make([]flash.LPN, 64)
			var warmWrites int64
			for done := int64(0); done < 2*lp; done += int64(len(batch)) {
				warmWrites += int64(len(batch))
				for i := range batch {
					batch[i] = flash.LPN(warm.Int63n(lp))
				}
				if err := e.WriteBatch(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
			}

			const (
				goroutines = 8
				rounds     = 24
				batchSize  = 48
			)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					lpns := make([]flash.LPN, batchSize)
					for r := 0; r < rounds; r++ {
						for i := range lpns {
							lpns[i] = flash.LPN(rng.Int63n(lp))
						}
						if r%3 == 2 {
							if err := e.ReadBatch(context.Background(), lpns); err != nil {
								t.Error(err)
								return
							}
							continue
						}
						if err := e.WriteBatch(context.Background(), lpns); err != nil {
							t.Error(err)
							return
						}
					}
				}(int64(g + 1))
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			stats := e.Stats()
			wantWrites := warmWrites + int64(goroutines*rounds/3*2*batchSize)
			if stats.LogicalWrites != wantWrites {
				t.Errorf("LogicalWrites = %d, want %d", stats.LogicalWrites, wantWrites)
			}
			if stats.GCOperations == 0 {
				t.Error("expected garbage collection to run during the hammer")
			}

			// Quiesced: the translation maps must agree with flash.
			if err := e.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			// And stay consistent after flushing all dirty state.
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := e.CheckConsistency(); err != nil {
				t.Fatalf("after flush: %v", err)
			}
			// Every page remains readable.
			all := make([]flash.LPN, lp)
			for i := range all {
				all[i] = flash.LPN(i)
			}
			if err := e.ReadBatch(context.Background(), all); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentBatchesKeepTheirContext runs batches from several goroutines
// on one engine, each goroutine alternating a cancelled context with a live
// one. Each batch borrows pooled scratch for its buckets, so two batches in
// flight must never see each other's pages or context: every live call
// returns nil having done all its pages, and every cancelled call returns
// context.Canceled having done none. Cancelled calls write pages no live call
// touches, so one that ran a page leaves it mapped. With batches run on their
// callers' goroutines, this and TestEngineBatchHammer are the batch path's
// only concurrency. Run with -race.
func TestConcurrentBatchesKeepTheirContext(t *testing.T) {
	dev := engineTestDevice(t, 128, 4)
	e, err := NewEngine(dev, GeckoFTLOptions(128), 4)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	live := context.Background()
	half := e.LogicalPages() / 2 // live calls use [0, half), cancelled ones the rest

	const (
		goroutines = 4
		rounds     = 200
		batchSize  = 32
	)
	var wg sync.WaitGroup
	var writes, reads [goroutines]int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			lpns := make([]flash.LPN, batchSize)
			for r := 0; r < rounds; r++ {
				base := int64(0)
				if r%2 == 0 {
					base = half
				}
				for i := range lpns {
					lpns[i] = flash.LPN(base + rng.Int63n(half))
				}
				switch r % 4 {
				case 0, 2:
					if err := e.WriteBatch(cancelled, lpns); !errors.Is(err, context.Canceled) {
						t.Errorf("goroutine %d round %d: cancelled WriteBatch returned %v, want context.Canceled", g, r, err)
						return
					}
				case 1:
					if err := e.WriteBatch(live, lpns); err != nil {
						t.Errorf("goroutine %d round %d: live WriteBatch: %v", g, r, err)
						return
					}
					writes[g] += batchSize
				case 3:
					if err := e.ReadBatch(live, lpns); err != nil {
						t.Errorf("goroutine %d round %d: live ReadBatch: %v", g, r, err)
						return
					}
					reads[g] += batchSize
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var wantWrites, wantReads int64
	for g := range writes {
		wantWrites += writes[g]
		wantReads += reads[g]
	}
	if st := e.Stats(); st.LogicalWrites != wantWrites || st.LogicalReads != wantReads {
		t.Errorf("engine did %d writes and %d reads, live calls asked for %d and %d", st.LogicalWrites, st.LogicalReads, wantWrites, wantReads)
	}
	for lpn := flash.LPN(half); int64(lpn) < 2*half; lpn++ {
		mapped, err := e.Mapped(lpn)
		if err != nil {
			t.Fatal(err)
		}
		if mapped {
			t.Fatalf("page %d, written only by cancelled batches, is mapped", lpn)
		}
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchesAreShardLoops pins what a batch is: a loop of shard operations
// under one arrival stamp. An 8-shard engine driven by WriteBatch, ReadBatch
// and TrimBatch must end in the same state as a twin driven by Do over the
// same pages in bucket order — ascending shard, slice order within a shard:
// the same logical counters, device IO, mapped pages, and consistent maps.
func TestBatchesAreShardLoops(t *testing.T) {
	batchDev, doDev := engineTestDevice(t, 256, 8), engineTestDevice(t, 256, 8)
	batched, err := NewEngine(batchDev, GeckoFTLOptions(256), 8)
	if err != nil {
		t.Fatal(err)
	}
	looped, err := NewEngine(doDev, GeckoFTLOptions(256), 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lp := batched.LogicalPages()
	rng := rand.New(rand.NewSource(23))
	lpns := make([]flash.LPN, 64)
	for r := 0; int64(r*len(lpns)) < 4*lp; r++ {
		for i := range lpns {
			lpns[i] = flash.LPN(rng.Int63n(lp))
		}
		kind := flash.HostWrite
		switch r % 10 {
		case 3, 7:
			kind = flash.HostRead
			err = batched.ReadBatch(ctx, lpns)
		case 9:
			kind = flash.HostTrim
			err = batched.TrimBatch(ctx, lpns)
		default:
			err = batched.WriteBatch(ctx, lpns)
		}
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for s := 0; s < looped.Shards(); s++ {
			for _, lpn := range lpns {
				if shard, _ := looped.ShardOf(lpn); shard != s {
					continue
				}
				if err := looped.Do(kind, lpn); err != nil {
					t.Fatalf("round %d: Do(%v, %d): %v", r, kind, lpn, err)
				}
			}
		}
	}

	if b, d := batched.Stats(), looped.Stats(); b != d {
		t.Errorf("logical counters differ:\nbatches %+v\nDo      %+v", b, d)
	} else if b.GCOperations == 0 || b.TrimmedPages == 0 {
		t.Fatalf("workload too small to mean anything: %+v", b)
	}
	if b, d := batchDev.Counters(), doDev.Counters(); b != d {
		t.Errorf("device counters differ:\nbatches %+v\nDo      %+v", b, d)
	}
	for lpn := flash.LPN(0); int64(lpn) < lp; lpn++ {
		b, err := batched.Mapped(lpn)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := looped.Mapped(lpn); b != d {
			t.Fatalf("page %d: mapped %v after batches, %v after Do", lpn, b, d)
		}
	}
	if err := batched.CheckConsistency(); err != nil {
		t.Errorf("after batches: %v", err)
	}
	if err := looped.CheckConsistency(); err != nil {
		t.Errorf("after Do: %v", err)
	}
}

// TestEngineParallelTimeScales verifies the performance property the
// topology exists for: the same workload on 8 channels finishes in well
// under half the wall-clock (busiest-die) time of a single channel.
func TestEngineParallelTimeScales(t *testing.T) {
	wallTime := func(channels int) (wall, serial float64) {
		dev := engineTestDevice(t, 256, channels)
		e, err := NewEngine(dev, GeckoFTLOptions(256), 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		lp := e.LogicalPages()
		batch := make([]flash.LPN, 128)
		for done := int64(0); done < 3*lp; done += int64(len(batch)) {
			for i := range batch {
				batch[i] = flash.LPN(rng.Int63n(lp))
			}
			if err := e.WriteBatch(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
		}
		return slices.Max(dev.DieTimes()).Seconds(), dev.SimulatedTime().Seconds()
	}
	wall1, serial1 := wallTime(1)
	wall8, _ := wallTime(8)
	if wall1 != serial1 {
		t.Errorf("1-channel wall %v != serial %v", wall1, serial1)
	}
	if speedup := wall1 / wall8; speedup < 2 {
		t.Errorf("8-channel speedup %.2fx, want >= 2x", speedup)
	}
}

// TestOneShardEngineMatchesBareFTL pins the equivalence the FTL-level
// experiments (internal/sim's MeasureFTL) and this package's bare-FTL tests
// lean on: a one-shard engine over a one-channel device adds locking and
// latency instrumentation to an FTL and nothing else. The same seeded stream
// of writes, reads and trims, then a crash and a recovery, must leave both
// stacks with identical device IO, logical counters, RAM footprint and
// recovery report.
func TestOneShardEngineMatchesBareFTL(t *testing.T) {
	for _, opts := range []Options{GeckoFTLOptions(96), DFTLOptions(96), LazyFTLOptions(96), MuFTLOptions(96), IBFTLOptions(96)} {
		t.Run(opts.FTL.String(), func(t *testing.T) {
			bareDev, engDev := engineTestDevice(t, 128, 1), engineTestDevice(t, 128, 1)
			bare, err := New(wholeDevice(t, bareDev), opts)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(engDev, opts, 0)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Shards() != 1 || eng.LogicalPages() != bare.LogicalPages() {
				t.Fatalf("engine has %d shards and %d logical pages, bare FTL %d pages", eng.Shards(), eng.LogicalPages(), bare.LogicalPages())
			}
			rng := rand.New(rand.NewSource(19))
			for i := int64(0); i < 4*bare.LogicalPages(); i++ {
				kind, lpn := flash.HostWrite, flash.LPN(rng.Int63n(bare.LogicalPages()))
				switch r := rng.Intn(10); {
				case r < 3:
					kind = flash.HostRead
				case r < 4:
					kind = flash.HostTrim
				}
				var bareErr error
				switch kind {
				case flash.HostRead:
					bareErr = bare.Read(lpn)
				case flash.HostTrim:
					bareErr = bare.Trim(lpn)
				default:
					bareErr = bare.Write(lpn)
				}
				if err := eng.Do(kind, lpn); err != nil || bareErr != nil {
					t.Fatalf("op %d (%v %d): bare %v, engine %v", i, kind, lpn, bareErr, err)
				}
			}
			same := func(when string) {
				t.Helper()
				if b, e := bareDev.Counters(), engDev.Counters(); b != e {
					t.Errorf("%s: device counters differ:\nbare   %+v\nengine %+v", when, b, e)
				}
				if b, e := bare.Stats(), eng.Stats(); b != e {
					t.Errorf("%s: logical counters differ:\nbare   %+v\nengine %+v", when, b, e)
				}
				if b, e := bare.RAMBytes(), eng.RAMBytes(); b != e {
					t.Errorf("%s: RAM footprint differs: bare %d, engine %d", when, b, e)
				}
			}
			same("after the workload")
			if st := bare.Stats(); st.GCOperations == 0 || st.TrimmedPages == 0 {
				t.Fatalf("workload too small to mean anything: %+v", st)
			}

			if err := bare.PowerFail(); err != nil {
				t.Fatal(err)
			}
			if err := eng.PowerFail(); err != nil {
				t.Fatal(err)
			}
			bareRep, err := bare.Recover()
			if err != nil {
				t.Fatal(err)
			}
			engRep, err := eng.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if got := engRep.Shards[0].RecoveryReport; got != *bareRep {
				t.Errorf("recovery reports differ:\nbare   %+v\nengine %+v", *bareRep, got)
			}
			same("after recovery")
		})
	}
}
