package geckoftl_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geckoftl"
	"geckoftl/internal/checkpoint"
)

// ckptOpen opens a 2-channel GeckoFTL device persisting its checkpoint at
// path.
func ckptOpen(t *testing.T, path string) *geckoftl.Device {
	t.Helper()
	return open(t,
		geckoftl.WithChannels(2, 1),
		geckoftl.WithCacheEntries(512),
		geckoftl.WithCheckpointPath(path),
	)
}

// fill drives a deterministic over-capacity write workload so the device has
// GC history, a populated cache, and gecko runs worth checkpointing.
func fillRandom(t *testing.T, dev *geckoftl.Device, seed int64) {
	t.Helper()
	ctx := context.Background()
	lp := dev.LogicalPages()
	rng := rand.New(rand.NewSource(seed))
	batch := make([]geckoftl.LPN, 64)
	for done := int64(0); done < 2*lp; done += int64(len(batch)) {
		for i := range batch {
			batch[i] = geckoftl.LPN(rng.Int63n(lp))
		}
		if err := dev.WriteBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
}

// mappedPages snapshots the device's mapped logical pages.
func mappedPages(t *testing.T, dev *geckoftl.Device) []bool {
	t.Helper()
	out := make([]bool, dev.LogicalPages())
	for lpn := range out {
		m, err := dev.Mapped(geckoftl.LPN(lpn))
		if err != nil {
			t.Fatal(err)
		}
		out[lpn] = m
	}
	return out
}

func TestWithCheckpointPathRejectsEmpty(t *testing.T) {
	if _, err := geckoftl.Open(geckoftl.WithCheckpointPath("")); !errors.Is(err, geckoftl.ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig", err)
	}
}

// TestRestartWarm pins the tentpole's happy path: a clean Restart comes back
// warm from the checkpoint, preserves the logical state exactly, and records
// the load.
func TestRestartWarm(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "dev.ckpt")
	dev := ckptOpen(t, path)
	defer dev.Close(ctx)
	fillRandom(t, dev, 1)
	before := mappedPages(t, dev)

	rep, err := dev.Restart(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm {
		t.Fatalf("restart fell back cold: %v", rep.Fallback)
	}
	if rep.Fallback != nil || rep.Recovery != nil {
		t.Fatalf("warm report carries fallback state: %+v", rep)
	}
	if rep.CheckpointBytes <= 0 || rep.WallClock <= 0 {
		t.Fatalf("warm report bytes=%d wall=%v", rep.CheckpointBytes, rep.WallClock)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	after := mappedPages(t, dev)
	for lpn := range before {
		if before[lpn] != after[lpn] {
			t.Fatalf("logical page %d mapped=%v after warm restart, want %v", lpn, after[lpn], before[lpn])
		}
	}
	load := dev.CheckpointLoad()
	if !load.Attempted || !load.Loaded || load.Err != nil || load.Bytes != rep.CheckpointBytes {
		t.Fatalf("CheckpointLoad = %+v", load)
	}
	if snap := dev.Snapshot(); snap.CheckpointBytes != rep.CheckpointBytes {
		t.Fatalf("Snapshot.CheckpointBytes = %d, want %d", snap.CheckpointBytes, rep.CheckpointBytes)
	}
	// The checkpoint file is on disk and decodable.
	if _, err := checkpoint.ReadFile(new(checkpoint.File), path, nil); err != nil {
		t.Fatalf("shutdown checkpoint unreadable: %v", err)
	}
	// The device keeps working after the warm restart.
	fillRandom(t, dev, 2)
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartWithoutPathIsStillWarm pins that Restart does not require a
// checkpoint file: the in-memory checkpoint serves the warm path.
func TestRestartWithoutPathIsStillWarm(t *testing.T) {
	ctx := context.Background()
	dev := open(t, geckoftl.WithChannels(2, 1), geckoftl.WithCacheEntries(512))
	defer dev.Close(ctx)
	fillRandom(t, dev, 3)
	rep, err := dev.Restart(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm || rep.CheckpointBytes <= 0 {
		t.Fatalf("pathless restart: %+v (fallback %v)", rep, rep.Fallback)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartFallsBackWhenUnsupported pins the graceful degradation: DFTL
// (a battery scheme) cannot be checkpointed, so Restart runs its recovery
// path cold and says why, instead of erroring.
func TestRestartFallsBackWhenUnsupported(t *testing.T) {
	ctx := context.Background()
	dev := open(t, geckoftl.WithFTL("dftl"), geckoftl.WithCacheEntries(512))
	defer dev.Close(ctx)
	fillRandom(t, dev, 4)
	rep, err := dev.Restart(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Warm {
		t.Fatal("unsupported scheme restarted warm")
	}
	if !errors.Is(rep.Fallback, geckoftl.ErrCheckpointInvalid) {
		t.Fatalf("Fallback = %v, want ErrCheckpointInvalid", rep.Fallback)
	}
	if rep.Recovery == nil || rep.CheckpointBytes != 0 {
		t.Fatalf("cold report: %+v", rep)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenWithCorruptCheckpointFallsBack pins the Open-side contract for
// every flavour of damaged file: Open never fails, never loads partially,
// records the classified rejection, and the device is indistinguishable from
// a cold open.
func TestOpenWithCorruptCheckpointFallsBack(t *testing.T) {
	ctx := context.Background()
	// A valid checkpoint of a written device, to mutate.
	dir := t.TempDir()
	source := filepath.Join(dir, "source.ckpt")
	src := ckptOpen(t, source)
	fillRandom(t, src, 5)
	if err := src.Close(ctx); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(source)
	if err != nil {
		t.Fatal(err)
	}

	bounds, err := checkpoint.Boundaries(valid)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name string
		data []byte
	}
	variants := []variant{
		{"garbage", []byte("not a checkpoint at all")},
		{"empty", nil},
	}
	for _, cut := range bounds[:len(bounds)-1] {
		variants = append(variants, variant{fmt.Sprintf("truncated@%d", cut), valid[:cut]})
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	variants = append(variants, variant{"bitflip", flipped})
	// A pristine checkpoint of a written device is itself stale against the
	// blank device a fresh Open builds: device truth must reject it.
	variants = append(variants, variant{"stale-vs-fresh-device", valid})

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dev.ckpt")
			if err := os.WriteFile(path, v.data, 0o644); err != nil {
				t.Fatal(err)
			}
			dev := ckptOpen(t, path)
			defer dev.Close(ctx)
			load := dev.CheckpointLoad()
			if !load.Attempted {
				t.Fatal("load not attempted despite a file being present")
			}
			if load.Loaded {
				t.Fatal("damaged checkpoint loaded")
			}
			if !errors.Is(load.Err, geckoftl.ErrCheckpointInvalid) {
				t.Fatalf("CheckpointLoad.Err = %v, want ErrCheckpointInvalid", load.Err)
			}
			if err := dev.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			// Identical to a cold open: blank logical state, fully writable.
			for _, lpn := range []geckoftl.LPN{0, 1, geckoftl.LPN(dev.LogicalPages() - 1)} {
				if m, err := dev.Mapped(lpn); err != nil || m {
					t.Fatalf("page %d mapped=%v err=%v on fallback open, want blank", lpn, m, err)
				}
			}
			fillRandom(t, dev, 6)
			if err := dev.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenWarmFromBlankCheckpoint pins the one case where an Open-time load
// can succeed against a fresh simulated device: a checkpoint of a device
// that never wrote matches blank device truth exactly.
func TestOpenWarmFromBlankCheckpoint(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "dev.ckpt")
	first := ckptOpen(t, path)
	if err := first.Close(ctx); err != nil {
		t.Fatal(err)
	}
	dev := ckptOpen(t, path)
	defer dev.Close(ctx)
	load := dev.CheckpointLoad()
	if !load.Attempted || !load.Loaded || load.Err != nil {
		t.Fatalf("CheckpointLoad = %+v, want a warm load", load)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	fillRandom(t, dev, 7)
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseAfterPowerFailWritesNoCheckpoint pins shutdown semantics around
// crashes: a power-failed Close is a successful no-op that must not write a
// checkpoint, and a second Close reports ErrClosed.
func TestCloseAfterPowerFailWritesNoCheckpoint(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "dev.ckpt")
	dev := ckptOpen(t, path)
	fillRandom(t, dev, 8)
	if err := dev.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(ctx); err != nil {
		t.Fatalf("Close after PowerFail: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("power-failed Close wrote a checkpoint (stat err %v)", err)
	}
	if err := dev.Close(ctx); !errors.Is(err, geckoftl.ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestCheckpointCrashHammer is the crash-consistency hammer (run with
// -race): concurrent writers and checkpointing flushes race an abrupt power
// failure; afterwards the checkpoint file must be absent or fully decodable
// (never torn), GeckoRec must recover the device, and a subsequent clean
// shutdown must produce a loadable checkpoint.
func TestCheckpointCrashHammer(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "dev.ckpt")
	dev := ckptOpen(t, path)
	fillRandom(t, dev, 9)

	const writers = 4
	var wg sync.WaitGroup
	var sawFail atomic.Int64
	start := make(chan struct{})
	lp := dev.LogicalPages()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]geckoftl.LPN, 32)
			<-start
			for {
				for i := range batch {
					batch[i] = geckoftl.LPN(rng.Int63n(lp))
				}
				if err := dev.WriteBatch(ctx, batch); err != nil {
					if !errors.Is(err, geckoftl.ErrPowerFailed) {
						t.Errorf("writer error other than power failure: %v", err)
					}
					sawFail.Add(1)
					return
				}
			}
		}(int64(g + 1))
	}
	// One goroutine keeps checkpointing so the crash can land mid-Flush,
	// between the flush and the export, or mid-file-write.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for {
			if err := dev.Flush(ctx); err != nil {
				if !errors.Is(err, geckoftl.ErrPowerFailed) {
					t.Errorf("flush error other than power failure: %v", err)
				}
				return
			}
		}
	}()
	close(start)
	time.Sleep(20 * time.Millisecond)
	if err := dev.PowerFail(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if sawFail.Load() == 0 {
		t.Log("power failure landed between batches; crash window not exercised mid-write")
	}

	// Atomicity: whatever the crash timing, the path holds nothing or a
	// complete, decodable checkpoint.
	if data, err := os.ReadFile(path); err == nil {
		if _, derr := checkpoint.Decode(data); derr != nil {
			t.Fatalf("checkpoint file torn after crash: %v", derr)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}

	// GeckoRec brings the device back.
	if _, err := dev.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// A clean restart now checkpoints and restores warm.
	rep, err := dev.Restart(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm {
		t.Fatalf("post-recovery restart fell back: %v", rep.Fallback)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// And the clean Close leaves a loadable checkpoint on disk.
	if err := dev.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.ReadFile(new(checkpoint.File), path, nil); err != nil {
		t.Fatalf("post-shutdown checkpoint unreadable: %v", err)
	}
}
