package ftl

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/checkpoint"
	"geckoftl/internal/flash"
	"geckoftl/internal/gecko"
	"geckoftl/internal/mapcache"
)

// Checkpoint section kinds. A checkpoint file holds exactly one engine
// section followed by, for each shard in index order, one section of each
// per-shard kind in the order listed here. The shard index lives in the
// upper bits of the section ID.
const (
	sectionEngine uint32 = 0x01

	sectionShardBlocks uint32 = 0x10
	sectionShardGMD    uint32 = 0x11
	sectionShardCache  uint32 = 0x12
	sectionShardGecko  uint32 = 0x13
	sectionShardHeat   uint32 = 0x14
)

// shardKinds lists the per-shard section kinds in their required file order.
var shardKinds = [...]uint32{sectionShardBlocks, sectionShardGMD, sectionShardCache, sectionShardGecko, sectionShardHeat}

// shardSectionID composes a per-shard section ID from a kind and a shard
// index.
func shardSectionID(kind uint32, shard int) uint32 { return kind | uint32(shard)<<8 }

// Encoded bytes of the engine section's payload and of each record of a
// repeated sequence: the export sizes the whole file with them before it
// writes a byte, and Reader.Count bounds slice pre-allocation by them.
const (
	engineRecordBytes  = 28 // fingerprint + shard count + write sequence + logical pages
	blockRecordBytes   = 30 // flags + group + writePointer + valid + firstWriteSeq + lastProgram + eraseCount
	gmdRecordBytes     = 8  // translation-page location
	cacheRecordBytes   = 17 // lpn + ppn + flags
	runHeaderBytes     = 24 // id + createSeq + level + page count
	runPageRecordBytes = 16 // ppn + packed min/max keys
	heatRecordBytes    = 12 // float32 heat + last-touch clock
)

// ErrCheckpointUnsupported reports that this engine's FTL cannot be
// checkpointed. Warm restart is a GeckoFTL feature: battery-backed FTLs
// flush at failure time and the other validity stores keep state this
// format does not cover, so they always start cold.
var ErrCheckpointUnsupported = errors.New("ftl: checkpointing requires GeckoFTL")

// checkpointFiles reports whether an engine of this FTL can save its RAM
// state to a host checkpoint file and restore it: only a battery-less FTL on
// Logarithmic Gecko (GeckoFTL), whose run directories the file carries. The
// engine exports, verifies and imports shards only when it holds, so those
// steps assert the store is a *gecko.Gecko.
func (f *FTL) checkpointFiles() bool {
	_, ok := f.validity.(*gecko.Gecko)
	return ok && !f.facts.battery
}

// shardCheckpoint is one shard's decoded RAM state and the destination its
// sections decode into. A restore points the slices at the shard's own
// storage (the run directories at its FTL's f.runs) and the cache at its own
// cache, so the decode fills the shard in place; a validation leaves them
// nil, so the decode allocates fresh slices, checks the cache entries and
// drops them, and the live shard is untouched.
type shardCheckpoint struct {
	blocks  []blockInfo
	free    []flash.BlockID
	active  [numFrontiers]flash.BlockID
	lastSeq uint64

	gmd []flash.PPN

	// cache receives the mapping-cache entries least recently used first,
	// so re-inserting them in order reproduces the LRU order.
	cache *mapcache.Cache

	runs []gecko.RunExport

	heatEnabled bool
	heatClock   int64
	heat        []float32
	heatLast    []int64
}

// engineCheckpoint is the decoded engine-wide state.
type engineCheckpoint struct {
	fingerprint  uint64
	shards       int
	writeSeq     uint64
	logicalPages int64
}

// fill returns s resliced to n elements when its capacity holds them, and
// a new slice otherwise.
func fill[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// checkpointFingerprint hashes the configuration facets that determine the
// meaning of checkpointed state. A checkpoint taken under one configuration
// must never be imported under another: geometry or option skew changes
// what every index in the file refers to.
func (e *Engine) checkpointFingerprint() uint64 {
	cfg := e.dev.Config()
	h := fnv.New64a()
	// The constant "|0|0" tail is part of the version-1 fingerprint: the
	// checkpoints already written hash it and must keep loading.
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%t|%t|0|0",
		cfg.Blocks, cfg.PagesPerBlock, cfg.PageSize, cfg.Channels, cfg.DiesPerChannel,
		len(e.shards), e.opts.FTL, e.opts.CacheEntries,
		e.opts.HotColdSeparation, e.opts.WearAwareAllocation)
	return h.Sum64()
}

// ExportCheckpoint snapshots the engine's complete RAM metadata as a
// checkpoint file: EncodeCheckpoint's bytes in a buffer of their own, whose
// sections the file's payloads alias.
func (e *Engine) ExportCheckpoint() (*checkpoint.File, error) {
	data, err := e.EncodeCheckpoint(nil)
	if err != nil {
		return nil, err
	}
	return checkpoint.Decode(data)
}

// EncodeCheckpoint snapshots the engine's complete RAM metadata as an
// encoded checkpoint file appended to dst: every shard writes its sections
// straight into one buffer, dst's storage when it has room for the file, else
// a new buffer of exactly len(dst) plus the file's size, sized before the
// first byte is written. A caller that encodes again and again passes the
// last result back as dst[:0] and so reuses its storage. The caller should
// Flush first so the snapshot describes durable state; every shard lock is
// held for the duration, so the snapshot is a consistent cut even with
// concurrent callers. Only battery-less GeckoFTL engines support
// checkpointing (ErrCheckpointUnsupported otherwise), and a power-failed
// engine cannot be exported.
func (e *Engine) EncodeCheckpoint(dst []byte) ([]byte, error) {
	e.powerMu.Lock()
	defer e.powerMu.Unlock()
	if e.failed {
		return nil, fmt.Errorf("ftl: checkpoint export on a power-failed engine: %w", flash.ErrPowerFailed)
	}
	if !e.shards[0].ftl.checkpointFiles() {
		return nil, ErrCheckpointUnsupported
	}
	e.latchAll((*sync.Mutex).Lock)
	defer e.latchAll((*sync.Mutex).Unlock)

	payload := engineRecordBytes
	for _, sh := range e.shards {
		payload += sh.ftl.checkpointPayloadBytes()
	}
	w := checkpoint.NewWriter(dst, checkpoint.FileSize(1+len(e.shards)*len(shardKinds), payload), checkpoint.Version)
	w.Begin(sectionEngine)
	w.U64(e.fingerprint)
	w.U32(uint32(len(e.shards)))
	w.U64(e.writeSeq())
	w.I64(e.logicalPages)
	w.End()
	for i, sh := range e.shards {
		sh.ftl.writeShardSections(w, i)
	}
	return w.Bytes(), nil
}

// latchAll applies op, a lock or an unlock, to every shard latch once.
// Shards that share a die share its latch, and only adjacent shards share
// dies.
func (e *Engine) latchAll(op func(*sync.Mutex)) {
	for i, sh := range e.shards {
		if i == 0 || sh.mu != e.shards[i-1].mu {
			op(sh.mu)
		}
	}
}

// checkpointPayloadBytes returns the summed payload size of the shard's
// sections as writeShardSections writes them.
func (f *FTL) checkpointPayloadBytes() int {
	lg := f.validity.(*gecko.Gecko)
	n := 4 + len(f.bm.blocks)*blockRecordBytes + 4 + 4*len(f.bm.free) + 1 + 8*len(f.bm.active) + 8
	n += 4 + f.table.Pages()*gmdRecordBytes
	n += 4 + f.cache.Len()*cacheRecordBytes
	n += 4 + lg.RunCount()*runHeaderBytes + lg.FlashPages()*runPageRecordBytes
	n++ // heat classifier flag
	if f.heat.enabled {
		n += 8 + 4 + len(f.heat.heat)*heatRecordBytes
	}
	return n
}

// writeShardSections writes one shard's RAM state as its per-shard
// sections. Callers hold the shard lock.
func (f *FTL) writeShardSections(w *checkpoint.Writer, shard int) {
	w.Begin(shardSectionID(sectionShardBlocks, shard))
	w.U32(uint32(len(f.bm.blocks)))
	for i := range f.bm.blocks {
		b := &f.bm.blocks[i]
		var flags uint8
		if b.allocated {
			flags |= 1
		}
		if b.retired {
			flags |= 2
		}
		w.U8(flags)
		w.U8(uint8(b.group))
		w.U32(uint32(b.writePointer))
		w.U32(uint32(b.valid))
		w.U64(b.firstWriteSeq)
		w.U64(b.lastProgram)
		w.U32(uint32(b.eraseCount))
	}
	w.U32(uint32(len(f.bm.free)))
	for _, id := range f.bm.free {
		w.U32(uint32(id))
	}
	w.U8(uint8(len(f.bm.active)))
	for _, id := range f.bm.active {
		w.I64(int64(id))
	}
	w.U64(f.bm.lastSeq)
	w.End()

	w.Begin(shardSectionID(sectionShardGMD, shard))
	w.U32(uint32(f.table.Pages()))
	for tp := 0; tp < f.table.Pages(); tp++ {
		w.I64(int64(f.table.GMDLocation(tp)))
	}
	w.End()

	w.Begin(shardSectionID(sectionShardCache, shard))
	w.U32(uint32(f.cache.Len()))
	f.cache.ForEachOldest(func(e mapcache.Entry) {
		w.I64(int64(e.Logical))
		w.I64(int64(e.Physical))
		var flags uint8
		if e.Dirty {
			flags |= 1
		}
		if e.UIP {
			flags |= 2
		}
		if e.Uncertain {
			flags |= 4
		}
		if e.Trimmed {
			flags |= 8
		}
		w.U8(flags)
	})
	w.End()

	w.Begin(shardSectionID(sectionShardGecko, shard))
	f.runs = f.validity.(*gecko.Gecko).ExportDirectories(f.runs)
	w.U32(uint32(len(f.runs)))
	for _, r := range f.runs {
		w.U64(r.ID)
		w.U64(r.CreateSeq)
		w.U32(uint32(r.Level))
		w.U32(uint32(len(r.Pages)))
		for _, p := range r.Pages {
			w.I64(p.PPN)
			w.U32(p.MinKey)
			w.U32(p.MaxKey)
		}
	}
	w.End()

	w.Begin(shardSectionID(sectionShardHeat, shard))
	w.Bool(f.heat.enabled)
	if f.heat.enabled {
		w.I64(f.heat.clock)
		w.U32(uint32(len(f.heat.heat)))
		for i := range f.heat.heat {
			w.U32(math.Float32bits(f.heat.heat[i]))
			w.I64(f.heat.last[i])
		}
	}
	w.End()
}

// decodeEngineSection checks a checkpoint's section layout — the engine
// section first, then one section of each kind for every shard it names —
// and decodes the engine-wide state. Damage wraps checkpoint.ErrInvalid.
func decodeEngineSection(file *checkpoint.File) (engineCheckpoint, error) {
	if len(file.Sections) == 0 || file.Sections[0].ID != sectionEngine {
		return engineCheckpoint{}, fmt.Errorf("%w: first section is not the engine header", checkpoint.ErrInvalid)
	}
	r := checkpoint.NewReader(file.Sections[0].Payload)
	ec := engineCheckpoint{
		fingerprint:  r.U64(),
		shards:       int(r.U32()),
		writeSeq:     r.U64(),
		logicalPages: r.I64(),
	}
	if err := r.Done(); err != nil {
		return engineCheckpoint{}, fmt.Errorf("engine section: %w", err)
	}
	if ec.shards < 1 || ec.shards > 1<<16 {
		return engineCheckpoint{}, fmt.Errorf("%w: implausible shard count %d", checkpoint.ErrInvalid, ec.shards)
	}
	if want := 1 + ec.shards*len(shardKinds); len(file.Sections) != want {
		return engineCheckpoint{}, fmt.Errorf("%w: %d sections for %d shards, want %d", checkpoint.ErrInvalid, len(file.Sections), ec.shards, want)
	}
	return ec, nil
}

// decodeShard decodes the shard's sections of a checkpoint, in their fixed
// order, into sc and checks the result against the shard's configuration
// and its partition's device truth. The partition must be powered; callers
// hold the shard lock.
func (f *FTL) decodeShard(file *checkpoint.File, shard int, sc *shardCheckpoint) error {
	for k, kind := range shardKinds {
		s := file.Sections[1+shard*len(shardKinds)+k]
		if s.ID != shardSectionID(kind, shard) {
			return fmt.Errorf("%w: section %#x out of order (want kind %#x of shard %d)", checkpoint.ErrInvalid, s.ID, kind, shard)
		}
		if err := f.decodeSection(kind, s.Payload, sc); err != nil {
			return fmt.Errorf("section %#x: %w", kind, err)
		}
	}
	return f.verifyShardCheckpoint(sc)
}

// decodeSection parses one per-shard section payload into sc. A cache entry
// is range-checked before it reaches sc.cache.
func (f *FTL) decodeSection(kind uint32, payload []byte, sc *shardCheckpoint) error {
	r := checkpoint.NewReader(payload)
	switch kind {
	case sectionShardBlocks:
		sc.blocks = fill(sc.blocks, r.Count(blockRecordBytes))
		for i := range sc.blocks {
			b := &sc.blocks[i]
			flags := r.U8()
			if flags&^uint8(3) != 0 {
				return fmt.Errorf("%w: unknown block flags %#x", checkpoint.ErrInvalid, flags)
			}
			b.allocated = flags&1 != 0
			b.retired = flags&2 != 0
			b.group = Group(r.U8())
			b.writePointer = int(r.U32())
			b.valid = int(r.U32())
			b.firstWriteSeq = r.U64()
			b.lastProgram = r.U64()
			b.eraseCount = int(r.U32())
		}
		sc.free = fill(sc.free, r.Count(4))
		for i := range sc.free {
			sc.free[i] = flash.BlockID(r.U32())
		}
		if got := int(r.U8()); got != numFrontiers {
			return fmt.Errorf("%w: %d write frontiers, want %d", checkpoint.ErrInvalid, got, numFrontiers)
		}
		for i := range sc.active {
			sc.active[i] = flash.BlockID(r.I64())
		}
		sc.lastSeq = r.U64()
	case sectionShardGMD:
		sc.gmd = fill(sc.gmd, r.Count(gmdRecordBytes))
		for i := range sc.gmd {
			sc.gmd[i] = flash.PPN(r.I64())
		}
	case sectionShardCache:
		n := r.Count(cacheRecordBytes)
		if n > f.cache.Capacity() {
			return fmt.Errorf("%w: %d cached entries over the %d-entry budget", checkpoint.ErrInvalid, n, f.cache.Capacity())
		}
		shardPages := flash.PPN(int64(f.cfg.Blocks) * int64(f.cfg.PagesPerBlock))
		for range n {
			e := mapcache.Entry{Logical: flash.LPN(r.I64()), Physical: flash.PPN(r.I64())}
			flags := r.U8()
			if flags&^uint8(15) != 0 {
				return fmt.Errorf("%w: unknown cache-entry flags %#x", checkpoint.ErrInvalid, flags)
			}
			e.Dirty = flags&1 != 0
			e.UIP = flags&2 != 0
			e.Uncertain = flags&4 != 0
			e.Trimmed = flags&8 != 0
			if e.Logical < 0 || int64(e.Logical) >= f.logicalPages {
				return fmt.Errorf("%w: cached mapping for logical page %d of %d", checkpoint.ErrInvalid, e.Logical, f.logicalPages)
			}
			if e.Physical != flash.InvalidPPN && (e.Physical < 0 || e.Physical >= shardPages) {
				return fmt.Errorf("%w: cached mapping %d -> %d out of range", checkpoint.ErrInvalid, e.Logical, e.Physical)
			}
			if sc.cache != nil {
				sc.cache.Put(e)
			}
		}
	case sectionShardGecko:
		sc.runs = fill(sc.runs, r.Count(runHeaderBytes))
		for i := range sc.runs {
			run := &sc.runs[i]
			run.ID = r.U64()
			run.CreateSeq = r.U64()
			run.Level = int(r.U32())
			run.Pages = fill(run.Pages, r.Count(runPageRecordBytes))
			for j := range run.Pages {
				run.Pages[j] = gecko.RunPageExport{PPN: r.I64(), MinKey: r.U32(), MaxKey: r.U32()}
			}
		}
	case sectionShardHeat:
		sc.heatEnabled = r.Bool()
		if sc.heatEnabled {
			sc.heatClock = r.I64()
			n := r.Count(heatRecordBytes)
			sc.heat, sc.heatLast = fill(sc.heat, n), fill(sc.heatLast, n)
			for i := range sc.heat {
				sc.heat[i] = math.Float32frombits(r.U32())
				sc.heatLast[i] = r.I64()
			}
		}
	}
	return r.Done()
}

// verifyEngineCheckpoint checks the engine-level facts of a decoded
// checkpoint against this engine and, crucially, against device truth: the
// sum of the shards' write sequences must match exactly, or the checkpoint
// describes a different moment of the flash than the one in front of us.
func (e *Engine) verifyEngineCheckpoint(ec engineCheckpoint) error {
	if got, want := ec.fingerprint, e.fingerprint; got != want {
		return fmt.Errorf("%w: configuration fingerprint %#x, this engine is %#x", checkpoint.ErrInvalid, got, want)
	}
	if ec.shards != len(e.shards) {
		return fmt.Errorf("%w: %d shards, this engine has %d", checkpoint.ErrInvalid, ec.shards, len(e.shards))
	}
	if ec.logicalPages != e.logicalPages {
		return fmt.Errorf("%w: %d logical pages, this engine has %d", checkpoint.ErrInvalid, ec.logicalPages, e.logicalPages)
	}
	if got, want := ec.writeSeq, e.writeSeq(); got != want {
		return fmt.Errorf("%w: stale checkpoint (content sequence %d, device is at %d)", checkpoint.ErrInvalid, got, want)
	}
	return nil
}

// verifyShardCheckpoint checks one shard's decoded state against the
// shard's configuration and its partition's device truth (write pointers,
// erase counters, the bad-block table — all controller bookkeeping, no
// flash IO). The shard's partition must be powered; callers hold the shard
// lock. Nothing is mutated.
func (f *FTL) verifyShardCheckpoint(sc *shardCheckpoint) error {
	if len(sc.blocks) != f.cfg.Blocks {
		return fmt.Errorf("%w: %d blocks, shard has %d", checkpoint.ErrInvalid, len(sc.blocks), f.cfg.Blocks)
	}
	if f.inFree == nil {
		f.inFree = bitmap.New(f.cfg.Blocks)
	} else {
		f.inFree.Reset()
	}
	inFree := f.inFree
	for _, id := range sc.free {
		if id < 0 || int(id) >= f.cfg.Blocks {
			return fmt.Errorf("%w: free block %d out of range", checkpoint.ErrInvalid, id)
		}
		if inFree.Get(int(id)) {
			return fmt.Errorf("%w: free pool repeats block %d", checkpoint.ErrInvalid, id)
		}
		inFree.Set(int(id))
	}
	for id := range sc.blocks {
		b := &sc.blocks[id]
		block := flash.BlockID(id)
		if int(b.group) >= int(numGroups) {
			return fmt.Errorf("%w: block %d in unknown group %d", checkpoint.ErrInvalid, id, b.group)
		}
		if b.writePointer < 0 || b.writePointer > f.cfg.PagesPerBlock {
			return fmt.Errorf("%w: block %d write pointer %d of %d pages", checkpoint.ErrInvalid, id, b.writePointer, f.cfg.PagesPerBlock)
		}
		if b.valid < 0 || b.valid > f.cfg.PagesPerBlock {
			return fmt.Errorf("%w: block %d validity count %d of %d pages", checkpoint.ErrInvalid, id, b.valid, f.cfg.PagesPerBlock)
		}
		if b.allocated && inFree.Get(id) {
			return fmt.Errorf("%w: block %d both allocated and free", checkpoint.ErrInvalid, id)
		}
		if b.retired && inFree.Get(id) {
			return fmt.Errorf("%w: block %d both retired and free", checkpoint.ErrInvalid, id)
		}
		bad, err := f.dev.BadBlock(block)
		if err != nil {
			return fmt.Errorf("ftl: checkpoint verification: %w", err)
		}
		if b.retired != bad {
			return fmt.Errorf("%w: block %d retirement disagrees with the device bad-block table", checkpoint.ErrInvalid, id)
		}
		erases, err := f.dev.EraseCount(block)
		if err != nil {
			return fmt.Errorf("ftl: checkpoint verification: %w", err)
		}
		if b.eraseCount != erases {
			return fmt.Errorf("%w: block %d erase count %d, device says %d", checkpoint.ErrInvalid, id, b.eraseCount, erases)
		}
		if !b.retired {
			wp, err := f.dev.WritePointer(block)
			if err != nil {
				return fmt.Errorf("ftl: checkpoint verification: %w", err)
			}
			if b.writePointer != wp {
				return fmt.Errorf("%w: block %d write pointer %d, device says %d", checkpoint.ErrInvalid, id, b.writePointer, wp)
			}
		}
	}
	for i, id := range sc.active {
		if id == flash.InvalidBlock {
			continue
		}
		if id < 0 || int(id) >= f.cfg.Blocks {
			return fmt.Errorf("%w: frontier %d block %d out of range", checkpoint.ErrInvalid, i, id)
		}
		if !sc.blocks[id].allocated {
			return fmt.Errorf("%w: frontier %d block %d is not allocated", checkpoint.ErrInvalid, i, id)
		}
	}

	if len(sc.gmd) != f.table.Pages() {
		return fmt.Errorf("%w: %d translation pages, shard has %d", checkpoint.ErrInvalid, len(sc.gmd), f.table.Pages())
	}
	shardPages := flash.PPN(int64(f.cfg.Blocks) * int64(f.cfg.PagesPerBlock))
	for tp, ppn := range sc.gmd {
		if ppn == flash.InvalidPPN {
			continue
		}
		if ppn < 0 || ppn >= shardPages {
			return fmt.Errorf("%w: translation page %d at %d out of range", checkpoint.ErrInvalid, tp, ppn)
		}
		block := flash.BlockID(int64(ppn) / int64(f.cfg.PagesPerBlock))
		offset := int(int64(ppn) % int64(f.cfg.PagesPerBlock))
		b := &sc.blocks[block]
		if b.group != GroupTranslation || !b.allocated {
			return fmt.Errorf("%w: translation page %d points into block %d of group %d", checkpoint.ErrInvalid, tp, block, b.group)
		}
		if offset >= b.writePointer {
			return fmt.Errorf("%w: translation page %d points past block %d's write pointer", checkpoint.ErrInvalid, tp, block)
		}
	}

	if err := f.validity.(*gecko.Gecko).ValidateDirectories(sc.runs); err != nil {
		return fmt.Errorf("%w: %w", checkpoint.ErrInvalid, err)
	}

	if sc.heatEnabled != f.heat.enabled {
		return fmt.Errorf("%w: heat classifier enabled=%t, shard has %t", checkpoint.ErrInvalid, sc.heatEnabled, f.heat.enabled)
	}
	if sc.heatEnabled && len(sc.heat) != len(f.heat.heat) {
		return fmt.Errorf("%w: heat state for %d pages, shard tracks %d", checkpoint.ErrInvalid, len(sc.heat), len(f.heat.heat))
	}
	return nil
}

// importShardCheckpoint rebuilds one crashed shard's RAM state from its
// sections of a checkpoint instead of running GeckoRec: zero flash IO. The
// sections decode into the storage the shard already owns. The shard must
// be power-failed (RAM already dropped); on any error the shard is returned
// to the crashed state — partial imports never survive — and the caller
// falls back to ordinary recovery.
func (f *FTL) importShardCheckpoint(file *checkpoint.File, shard int) error {
	if f.dev.Powered() {
		return fmt.Errorf("ftl: checkpoint import without a preceding PowerFail")
	}
	f.dev.PowerOn()
	f.cache.Clear()
	sc := shardCheckpoint{
		blocks: f.bm.blocks, free: f.bm.free, gmd: f.table.gmd, cache: f.cache,
		runs: f.runs, heat: f.heat.heat, heatLast: f.heat.last,
	}
	err := f.decodeShard(file, shard, &sc)
	f.runs = sc.runs
	if err != nil {
		f.crash()
		return err
	}
	// Verified, so the run directories are importable and the block table,
	// GMD and heat state filled the shard's own arrays at their full
	// lengths; the free list takes its new one.
	f.validity.(*gecko.Gecko).ImportDirectories(sc.runs)
	f.bm.free, f.bm.active, f.bm.lastSeq = sc.free, sc.active, sc.lastSeq
	f.bm.restoreFreeOrder()
	f.bm.reindexFullBlocks()
	if f.heat.enabled {
		f.heat.clock = sc.heatClock
	}
	return nil
}

// ValidateCheckpoint checks a decoded checkpoint against a live engine
// without mutating anything: configuration fingerprint, shard layout,
// staleness versus the shards' write sequences, and every shard's
// state against its partition's device truth. Each shard's sections decode
// into fresh memory. A nil return means RestoreCheckpoint would accept the
// file in the engine's current state.
func (e *Engine) ValidateCheckpoint(file *checkpoint.File) error {
	e.powerMu.Lock()
	defer e.powerMu.Unlock()
	if e.failed {
		return fmt.Errorf("ftl: checkpoint validation on a power-failed engine: %w", flash.ErrPowerFailed)
	}
	if !e.shards[0].ftl.checkpointFiles() {
		return ErrCheckpointUnsupported
	}
	ec, err := decodeEngineSection(file)
	if err != nil {
		return err
	}
	if err := e.verifyEngineCheckpoint(ec); err != nil {
		return err
	}
	for i, sh := range e.shards {
		sh.mu.Lock()
		err := sh.ftl.decodeShard(file, i, &shardCheckpoint{})
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// RestoreCheckpoint performs a warm restart: it rebuilds every shard's RAM
// state from a checkpoint instead of running GeckoRec, at zero flash IO.
// The engine must be power-failed (as after PowerFail or a clean shutdown's
// simulated reboot). The checkpoint is validated — structure, configuration
// fingerprint, staleness against the shards' write sequences, and
// per-shard device truth — as each shard decodes into its own RAM; on any
// failure every shard is returned to the crashed state and the error is
// reported so the caller can fall back to Engine.Recover. Partial state
// never survives.
func (e *Engine) RestoreCheckpoint(file *checkpoint.File) error {
	e.powerMu.Lock()
	defer e.powerMu.Unlock()
	if !e.failed {
		return fmt.Errorf("ftl: checkpoint restore without a preceding PowerFail")
	}
	if !e.shards[0].ftl.checkpointFiles() {
		return ErrCheckpointUnsupported
	}
	ec, err := decodeEngineSection(file)
	if err != nil {
		return err
	}
	if err := e.verifyEngineCheckpoint(ec); err != nil {
		return err
	}
	e.dev.PowerOn()
	for i, sh := range e.shards {
		sh.mu.Lock()
		err := sh.ftl.importShardCheckpoint(file, i)
		sh.mu.Unlock()
		if err != nil {
			// Roll every shard back to the crashed state: shards imported so
			// far drop their rebuilt RAM, untouched shards are already
			// crashed, and the rail is cut again so Engine.Recover starts
			// from a clean engine-wide crash.
			for _, sh2 := range e.shards {
				sh2.mu.Lock()
				sh2.ftl.crash()
				sh2.mu.Unlock()
			}
			e.dev.PowerFail()
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	e.failed = false
	return nil
}
