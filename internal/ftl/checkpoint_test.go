package ftl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"geckoftl/internal/checkpoint"
	"geckoftl/internal/flash"
	"geckoftl/internal/model"
)

// checkpointTestEngine builds a filled, flushed multi-shard GeckoFTL engine:
// the state a clean shutdown would checkpoint.
func checkpointTestEngine(t *testing.T, blocks, channels int) *Engine {
	t.Helper()
	dev := engineTestDevice(t, blocks, channels)
	e, err := NewEngine(dev, GeckoFTLOptions(128*channels), channels)
	if err != nil {
		t.Fatal(err)
	}
	lp := e.LogicalPages()
	rng := rand.New(rand.NewSource(99))
	batch := make([]flash.LPN, 32)
	for done := int64(0); done < 2*lp; done += int64(len(batch)) {
		for i := range batch {
			batch[i] = flash.LPN(rng.Int63n(lp))
		}
		if err := e.WriteBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e
}

// mappedSet snapshots which logical pages hold host data.
func mappedSet(t *testing.T, e *Engine) []bool {
	t.Helper()
	out := make([]bool, e.LogicalPages())
	for lpn := range out {
		m, err := e.Mapped(flash.LPN(lpn))
		if err != nil {
			t.Fatal(err)
		}
		out[lpn] = m
	}
	return out
}

func sameMapped(t *testing.T, want, got []bool, context string) {
	t.Helper()
	for lpn := range want {
		if want[lpn] != got[lpn] {
			t.Fatalf("%s: logical page %d mapped=%v, want %v", context, lpn, got[lpn], want[lpn])
		}
	}
}

// TestExportSizesEachPayload pins the record-size constants to what the
// export writes: the one buffer every section is framed into is sized up
// front, to the byte, with the heat classifier off and on.
func TestExportSizesEachPayload(t *testing.T) {
	for _, heat := range []bool{false, true} {
		dev := engineTestDevice(t, 128, 2)
		opts := GeckoFTLOptions(256)
		opts.HotColdSeparation = heat
		e, err := NewEngine(dev, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		for lpn := flash.LPN(0); lpn < flash.LPN(e.LogicalPages()); lpn += 3 {
			if err := e.Write(lpn); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		data, err := e.EncodeCheckpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != cap(data) {
			t.Errorf("heat %t: checkpoint of %d bytes in a buffer of %d", heat, len(data), cap(data))
		}
	}
}

// TestModelCheckpointSizeMatchesRecords ties the analytic model's copy of the
// record sizes to the encoders': model.CheckpointSize must count one block,
// GMD and cache record each for every block, translation page and cache
// entry, at the widths the export writes them.
func TestModelCheckpointSizeMatchesRecords(t *testing.T) {
	small := model.Default()
	small.Blocks, small.PagesPerBlock, small.PageSize, small.CacheEntries = 1024, 64, 2048, 300
	wide := model.Default()
	wide.PageSize, wide.OverProvision, wide.CacheEntries = 16384, 0.9, 1<<22
	for _, p := range []model.Parameters{model.Default(), small, wide} {
		want := p.Blocks*blockRecordBytes + p.TranslationPages()*gmdRecordBytes + p.CacheEntries*cacheRecordBytes
		if got := model.CheckpointSize(p); got != want {
			t.Errorf("%d blocks of %d %d-byte pages, C=%d: model.CheckpointSize = %d, the encoders' records %d",
				p.Blocks, p.PagesPerBlock, p.PageSize, p.CacheEntries, got, want)
		}
	}
}

// TestEngineCheckpointRoundTrip is the core warm-restart property: export,
// power-fail, restore, and the engine serves the identical logical state
// with a consistent translation map, then keeps working. On 250 blocks over
// 3 channels the shards split dies and share one latch, which the export
// must lock once.
func TestEngineCheckpointRoundTrip(t *testing.T) {
	for _, g := range []struct{ blocks, channels int }{{128, 2}, {250, 3}} {
		t.Run(fmt.Sprintf("%d blocks on %d channels", g.blocks, g.channels), func(t *testing.T) {
			checkpointRoundTrip(t, g.blocks, g.channels)
		})
	}
}

func checkpointRoundTrip(t *testing.T, blocks, channels int) {
	e := checkpointTestEngine(t, blocks, channels)
	before := mappedSet(t, e)
	file, err := e.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The exported file survives the byte format losslessly.
	decoded, err := checkpoint.Decode(checkpoint.Encode(file))
	if err != nil {
		t.Fatal(err)
	}
	checkIndexes := func(when string) {
		t.Helper()
		for s := range e.Shards() {
			if err := e.Shard(s).bm.checkIndex(); err != nil {
				t.Fatalf("shard %d %s: full-block index: %v", s, when, err)
			}
		}
	}
	checkIndexes("before the power failure")
	if err := e.PowerFail(); err != nil {
		t.Fatal(err)
	}
	checkIndexes("after the power failure")
	if err := e.RestoreCheckpoint(decoded); err != nil {
		t.Fatal(err)
	}
	checkIndexes("after the import")
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("restored engine inconsistent: %v", err)
	}
	sameMapped(t, before, mappedSet(t, e), "after warm restore")
	// The restored engine is fully operational, including GC pressure.
	lp := e.LogicalPages()
	rng := rand.New(rand.NewSource(7))
	batch := make([]flash.LPN, 32)
	for done := int64(0); done < lp; done += int64(len(batch)) {
		for i := range batch {
			batch[i] = flash.LPN(rng.Int63n(lp))
		}
		if err := e.WriteBatch(context.Background(), batch); err != nil {
			t.Fatalf("write after warm restore: %v", err)
		}
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("post-restore workload left engine inconsistent: %v", err)
	}
	checkIndexes("after the post-restore workload")
}

// TestEngineCheckpointUnsupportedSchemes pins the gate: only GeckoFTL
// checkpoints; the other four FTLs refuse to export, validate or restore with
// ErrCheckpointUnsupported.
func TestEngineCheckpointUnsupportedSchemes(t *testing.T) {
	file, err := checkpointTestEngine(t, 128, 1).ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range model.Kinds() {
		if kind == model.GeckoFTL {
			continue
		}
		e, err := NewEngine(engineTestDevice(t, 64, 1), OptionsFor(kind, 128), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExportCheckpoint(); !errors.Is(err, ErrCheckpointUnsupported) {
			t.Errorf("%v ExportCheckpoint = %v, want ErrCheckpointUnsupported", kind, err)
		}
		if err := e.ValidateCheckpoint(file); !errors.Is(err, ErrCheckpointUnsupported) {
			t.Errorf("%v ValidateCheckpoint = %v, want ErrCheckpointUnsupported", kind, err)
		}
		if err := e.PowerFail(); err != nil {
			t.Fatal(err)
		}
		if err := e.RestoreCheckpoint(file); !errors.Is(err, ErrCheckpointUnsupported) {
			t.Errorf("%v RestoreCheckpoint = %v, want ErrCheckpointUnsupported", kind, err)
		}
	}
}

// TestEngineCheckpointCorruptionMatrix is the torn-write and corruption
// matrix: the encoded checkpoint is truncated at (and one byte past) every
// section boundary and bit-flipped once inside every section, and every
// variant must be rejected — by the decoder, by read-only validation, or by
// the import — after which GeckoRec recovery restores the identical flushed
// state with a consistent translation map.
func TestEngineCheckpointCorruptionMatrix(t *testing.T) {
	e := checkpointTestEngine(t, 128, 2)
	want := mappedSet(t, e)

	type variant struct {
		name string
		data []byte
	}
	makeVariants := func(data []byte) []variant {
		bounds, err := checkpoint.Boundaries(data)
		if err != nil {
			t.Fatal(err)
		}
		var out []variant
		for _, cut := range bounds[:len(bounds)-1] {
			out = append(out, variant{name: "truncate", data: data[:cut]})
			out = append(out, variant{name: "truncate+1", data: data[:cut+1]})
		}
		// One flip inside each region delimited by consecutive boundaries:
		// the header, then every section.
		for i := 1; i < len(bounds); i++ {
			mid := (bounds[i-1] + bounds[i]) / 2
			flipped := append([]byte(nil), data...)
			flipped[mid] ^= 0x20
			out = append(out, variant{name: "bitflip", data: flipped})
		}
		return out
	}

	data := checkpoint.Encode(mustExport(t, e))
	variants := makeVariants(data)
	if len(variants) < 20 {
		t.Fatalf("only %d corruption variants; matrix too small", len(variants))
	}
	for i, v := range variants {
		// Re-export each round: a cold recovery writes flash (synchronize),
		// so the previous round's checkpoint is stale by design.
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		fresh := checkpoint.Encode(mustExport(t, e))
		fv := makeVariants(fresh)
		if i >= len(fv) {
			break
		}
		v = fv[i]

		decoded, derr := checkpoint.Decode(v.data)
		if derr == nil {
			// Structurally valid (a clean boundary cut): the consumer-level
			// checks must reject it, first read-only on the live engine...
			if err := e.ValidateCheckpoint(decoded); err == nil {
				t.Fatalf("variant %d (%s, %d bytes): live validation accepted a damaged checkpoint", i, v.name, len(v.data))
			}
			// ...then through the real restore path.
			if err := e.PowerFail(); err != nil {
				t.Fatal(err)
			}
			if err := e.RestoreCheckpoint(decoded); err == nil {
				t.Fatalf("variant %d (%s, %d bytes): restore accepted a damaged checkpoint", i, v.name, len(v.data))
			}
			if _, err := e.Recover(); err != nil {
				t.Fatalf("variant %d (%s): GeckoRec fallback failed: %v", i, v.name, err)
			}
		} else if !errors.Is(derr, checkpoint.ErrInvalid) {
			t.Fatalf("variant %d (%s): decode error %v does not wrap ErrInvalid", i, v.name, derr)
		}
		if err := e.CheckConsistency(); err != nil {
			t.Fatalf("variant %d (%s): engine inconsistent after fallback: %v", i, v.name, err)
		}
		sameMapped(t, want, mappedSet(t, e), "after fallback")
	}
}

func mustExport(t *testing.T, e *Engine) *checkpoint.File {
	t.Helper()
	file, err := e.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// TestEngineRestoreRollsBackPartialDecode pins the rollback of a restore
// that fails part-way. The checkpoint is re-framed, every checksum valid,
// with one block of the last shard an erase off its device count, so the
// other shards decode into their own RAM before the last one's check
// against the device fails. The restore must fail as an invalid checkpoint,
// and the recovery after it must start from a clean crash: a consistent map
// holding the same pages as a plain PowerFail and Recover of the same state.
func TestEngineRestoreRollsBackPartialDecode(t *testing.T) {
	const blocks, channels = 256, 4
	ref := checkpointTestEngine(t, blocks, channels)
	if err := ref.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Recover(); err != nil {
		t.Fatal(err)
	}
	want := mappedSet(t, ref)

	e := checkpointTestEngine(t, blocks, channels)
	file := mustExport(t, e)
	damaged := &checkpoint.File{Version: file.Version}
	for _, s := range file.Sections {
		if s.ID == shardSectionID(sectionShardBlocks, channels-1) {
			s.Payload = append([]byte(nil), s.Payload...)
			erases := s.Payload[4+26:] // block 0's erase count
			binary.LittleEndian.PutUint32(erases, binary.LittleEndian.Uint32(erases)+1)
		}
		damaged.Sections = append(damaged.Sections, s)
	}
	reframed, err := checkpoint.Decode(checkpoint.Encode(damaged))
	if err != nil {
		t.Fatal(err)
	}

	if err := e.PowerFail(); err != nil {
		t.Fatal(err)
	}
	err = e.RestoreCheckpoint(reframed)
	if !errors.Is(err, checkpoint.ErrInvalid) || !strings.Contains(err.Error(), fmt.Sprintf("shard %d:", channels-1)) {
		t.Fatalf("restore of a checkpoint damaged in the last shard: %v, want ErrInvalid from shard %d", err, channels-1)
	}
	if _, err := e.Recover(); err != nil {
		t.Fatalf("GeckoRec after the failed restore: %v", err)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("engine inconsistent after the failed restore: %v", err)
	}
	sameMapped(t, want, mappedSet(t, e), "recovery after a failed restore")
}

// TestEngineCheckpointStaleSequenceRejected pins the device-truth check: a
// checkpoint from an earlier point in the device's life — even a perfectly
// well-formed one — must be rejected once further writes have moved the
// shards' write sequences, and the rejection must be detectable read-only.
func TestEngineCheckpointStaleSequenceRejected(t *testing.T) {
	e := checkpointTestEngine(t, 128, 2)
	stale := mustExport(t, e)
	// Move the device past the checkpoint.
	lp := e.LogicalPages()
	for lpn := int64(0); lpn < 64; lpn++ {
		if err := e.Write(flash.LPN(lpn % lp)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.ValidateCheckpoint(stale); err == nil {
		t.Fatal("live validation accepted a stale checkpoint")
	}
	want := mappedSet(t, e)
	if err := e.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreCheckpoint(stale); err == nil {
		t.Fatal("restore accepted a stale checkpoint")
	}
	if _, err := e.Recover(); err != nil {
		t.Fatalf("GeckoRec fallback: %v", err)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	sameMapped(t, want, mappedSet(t, e), "after stale-checkpoint fallback")
}

// TestEngineRestoreRequiresPowerFail pins the precondition: restoring into a
// live engine is a programming error, not a silent state swap.
func TestEngineRestoreRequiresPowerFail(t *testing.T) {
	e := checkpointTestEngine(t, 64, 1)
	file := mustExport(t, e)
	if err := e.RestoreCheckpoint(file); err == nil {
		t.Fatal("RestoreCheckpoint succeeded on a live engine")
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("rejected restore disturbed the live engine: %v", err)
	}
}
