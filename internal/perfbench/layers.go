package main

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/checkpoint"
	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/gecko"
	"geckoftl/internal/mapcache"
	"geckoftl/internal/metastore"
	"geckoftl/internal/pvb"
	"geckoftl/internal/pvl"
	"geckoftl/internal/queue"
	"geckoftl/internal/stats"
	"geckoftl/internal/workload"
)

// T3: every layer's exported functions driven alone, the same way whatever
// the workload. Each drive makes IsolatedCalls calls after its warm-up, timed
// in chunks of chunkCalls for the means and call by call for the percentiles.
const (
	chunkCalls    = 1024
	isolatedCache = 1024
)

// isolated is one T3 pass: its sizing, its seed and the metrics it fills.
type isolated struct {
	sizing
	seed int64
	m    map[string]float64
}

// sink keeps results the compiler could otherwise discard.
var sink int

// chunks calls fn(i) for i in [0,n) and returns each chunk's mean ns per call.
func chunks(n int, fn func(i int)) []float64 {
	out := make([]float64, 0, n/chunkCalls+1)
	for lo := 0; lo < n; lo += chunkCalls {
		hi := min(lo+chunkCalls, n)
		start := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		out = append(out, float64(time.Since(start))/float64(hi-lo))
	}
	return out
}

// steady is the cost of a call that does the same work every time: the
// median chunk, which a pre-empted chunk cannot move.
func steady(n int, fn func(i int)) float64 { return median(chunks(n, fn)) }

// withAllocs is steady plus the heap objects allocated per call.
func withAllocs(n int, fn func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns = steady(n, fn)
	runtime.ReadMemStats(&after)
	return ns, float64(after.Mallocs-before.Mallocs) / float64(n)
}

// perCall times every call on its own and returns the sorted durations.
func perCall(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		fn(i)
		out[i] = float64(time.Since(start))
	}
	sort.Float64s(out)
	return out
}

// must turns a failing isolated call into a panic that isolatedLayers
// recovers: none can fail unless the layer is broken.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// isolatedLayers runs every T3 drive and fills the metrics they own.
func isolatedLayers(r *report, sz sizing, seed int64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(error)
			if !ok {
				panic(p)
			}
			err = e
		}
	}()
	t := isolated{sizing: sz, seed: seed, m: r.Metrics}
	t.flash()
	t.mapcache()
	t.validity()
	t.ftl()
	t.queue()
	t.small()
	return nil
}

// flashConfig is the common device's geometry at the given size and topology.
func flashConfig(blocks, channels int) flash.Config {
	cfg := flash.ScaledConfig(blocks)
	cfg.PagesPerBlock, cfg.PageSize = pagesPerBlock, pageSize
	cfg.Channels, cfg.DiesPerChannel = channels, 1
	return cfg
}

// flash drives flash.Device alone: program every page in block
// order, read them back at random, erase.
func (t isolated) flash() {
	m, n := t.m, t.IsolatedCalls
	cfg := flashConfig(8*t.IsolatedBlocks, 8)
	dev := flash.MustNewDevice(cfg)
	spare := flash.SpareArea{Logical: 1}
	m["flash.write_page_ns"], m["flash.write_page_allocs"] = withAllocs(n, func(i int) {
		_, err := dev.WritePage(flash.PPN(i), spare, flash.PurposeUserWrite)
		must(err)
	})
	rng := rand.New(rand.NewSource(1))
	targets := make([]flash.PPN, n)
	for i := range targets {
		targets[i] = flash.PPN(rng.Intn(n))
	}
	m["flash.read_page_ns"] = steady(n, func(i int) {
		must(dev.ReadPage(targets[i], flash.PurposeUserRead))
	})
	m["flash.read_spare_ns"] = steady(n, func(i int) {
		_, _, err := dev.ReadSpare(targets[i], flash.PurposeRecovery)
		must(err)
	})
	m["flash.erase_block_ns"] = steady(n, func(i int) {
		must(dev.EraseBlock(flash.BlockID(i%cfg.Blocks), flash.PurposeGCErase))
	})

	// Two goroutines program disjoint dies of a fresh device. Nothing they
	// touch is shared but the device-wide sequence and arrival atomics, so
	// any cost above write_page_ns is contention on those.
	dev = flash.MustNewDevice(cfg)
	half := n / 2
	var wg sync.WaitGroup
	var errs [2]error
	start := time.Now()
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			first := flash.PPN(g * cfg.PhysicalPages() / 2)
			for i := 0; i < half && errs[g] == nil; i++ {
				_, errs[g] = dev.WritePage(first+flash.PPN(i), spare, flash.PurposeUserWrite)
			}
		}(g)
	}
	wg.Wait()
	m["flash.write_page_2g_ns"] = float64(time.Since(start)) / float64(half)
	must(errs[0])
	must(errs[1])
}

// mapcache drives a bare mapcache.Cache of the write workloads'
// capacity.
func (t isolated) mapcache() {
	m, n, seed := t.m, t.IsolatedCalls, t.seed
	const capacity = 4096
	rng := rand.New(rand.NewSource(seed))
	c := mapcache.New(capacity, pageSize/4)
	for i := 0; i < capacity; i++ {
		c.Put(mapcache.Entry{Logical: LPN(i), Physical: flash.PPN(i), Dirty: true})
	}
	cached := make([]LPN, n)
	for i := range cached {
		cached[i] = LPN(rng.Intn(capacity))
	}
	m["mapcache.lookup_hit_ns"] = steady(n, func(i int) {
		if _, ok := c.Lookup(cached[i]); ok {
			sink++
		}
	})
	m["mapcache.lookup_miss_ns"] = steady(n, func(i int) {
		if _, ok := c.Lookup(cached[i] + capacity); ok {
			sink++
		}
	})
	m["mapcache.update_ns"] = steady(n, func(i int) {
		c.Update(cached[i], func(e *mapcache.Entry) { e.UIP = true })
	})
	// A full cache: every Put of a new page evicts the least recently used.
	m["mapcache.put_evict_ns"], m["mapcache.allocs_per_put_evict"] = withAllocs(n, func(i int) {
		if c.Put(mapcache.Entry{Logical: LPN(capacity + i), Dirty: true}).Valid {
			sink++
		}
	})

	// A cache with room: every Put adds an entry. The heap it grows by is
	// the real cost of an entry, against the 8 bytes the paper's model charges.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	big := mapcache.New(n, pageSize/4)
	m["mapcache.put_new_ns"] = steady(n, func(i int) {
		big.Put(mapcache.Entry{Logical: LPN(i), Physical: flash.PPN(i)})
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	m["mapcache.bytes_per_entry"] = float64(after.HeapAlloc-before.HeapAlloc) / float64(big.Len())
	runtime.KeepAlive(big)
}

// validityStore is what the page-validity layers share.
type validityStore interface {
	Update(addr flash.Addr) error
	RecordErase(block flash.BlockID) error
	Query(block flash.BlockID) (*bitmap.Bitmap, error)
}

// invalidator feeds a page-validity store the invalidation stream of uniform
// updates, with a query and an erase record at garbage-collection cadence:
// the in-memory FTL skeleton of sim/isolated.go (page map, greedy victim,
// free migration), kept to what the stream needs.
type invalidator struct {
	store   validityStore
	mapping []flash.PPN // per logical page
	owner   []LPN       // per physical page; -1 when free or stale
	valid   []int       // per block
	written []int       // per block
	active  int
	free    int // blocks never written since their erase, active excluded

	updates, queries []float64 // ns per call, when recording
	record           bool
}

func newInvalidator(store validityStore, blocks int) *invalidator {
	d := &invalidator{
		store:   store,
		mapping: make([]flash.PPN, int(flash.DefaultOverProvision*float64(blocks*pagesPerBlock))),
		owner:   make([]LPN, blocks*pagesPerBlock),
		valid:   make([]int, blocks),
		written: make([]int, blocks),
		free:    blocks - 1,
	}
	for i := range d.mapping {
		d.mapping[i] = flash.InvalidPPN
	}
	for i := range d.owner {
		d.owner[i] = -1
	}
	return d
}

func (d *invalidator) allocate(lpn LPN) {
	if d.written[d.active] == pagesPerBlock {
		for i := range d.written {
			if d.written[i] == 0 {
				d.active = i
				d.free--
				break
			}
		}
	}
	ppn := flash.PPNOf(flash.BlockID(d.active), d.written[d.active], pagesPerBlock)
	d.written[d.active]++
	d.valid[d.active]++
	d.mapping[lpn], d.owner[ppn] = ppn, lpn
}

func (d *invalidator) collect() {
	victim := -1
	for i := range d.valid {
		if i != d.active && d.written[i] == pagesPerBlock && (victim < 0 || d.valid[i] < d.valid[victim]) {
			victim = i
		}
	}
	start := time.Now()
	_, err := d.store.Query(flash.BlockID(victim))
	if d.record {
		d.queries = append(d.queries, float64(time.Since(start)))
	}
	must(err)
	d.written[victim], d.valid[victim] = 0, 0
	d.free++
	for offset := 0; offset < pagesPerBlock; offset++ {
		ppn := flash.PPNOf(flash.BlockID(victim), offset, pagesPerBlock)
		if lpn := d.owner[ppn]; lpn >= 0 {
			d.owner[ppn] = -1
			d.allocate(lpn)
		}
	}
	must(d.store.RecordErase(flash.BlockID(victim)))
}

func (d *invalidator) write(lpn LPN) {
	for d.free <= 2 {
		d.collect()
	}
	if old := d.mapping[lpn]; old != flash.InvalidPPN {
		d.owner[old] = -1
		d.valid[flash.BlockOf(old, pagesPerBlock)]--
		start := time.Now()
		err := d.store.Update(flash.Decompose(old, pagesPerBlock))
		if d.record {
			d.updates = append(d.updates, float64(time.Since(start)))
		}
		must(err)
	}
	d.allocate(lpn)
}

// drive warms the store up with two overwrites of every page, then records
// n updates. It returns the allocations per recorded update.
func (d *invalidator) drive(seed int64, n int) float64 {
	pages := int64(len(d.mapping))
	gen := workload.MustNewUniform(pages, seed)
	for i := int64(0); i < 3*pages; i++ {
		d.write(gen.Next().Page)
	}
	d.record = true
	d.updates = make([]float64, 0, n)
	d.queries = make([]float64, 0, n/8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for len(d.updates) < n {
		d.write(gen.Next().Page)
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(d.updates)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// validity drives Logarithmic Gecko, both PVBs and the PVL over a
// metastore.BlockStore of their own.
func (t isolated) validity() {
	m, seed := t.m, t.seed
	user, meta := t.IsolatedBlocks, t.IsolatedBlocks/2
	newStore := func() (*flash.Device, *metastore.BlockStore) {
		dev := flash.MustNewDevice(flashConfig(user+meta, 1))
		ids := make([]flash.BlockID, meta)
		for i := range ids {
			ids[i] = flash.BlockID(user + i)
		}
		store, err := metastore.NewBlockStore(dev, ids, flash.BlockGecko, flash.PurposePageValidity)
		must(err)
		return dev, store
	}

	dev, store := newStore()
	g, err := gecko.New(gecko.DefaultConfig(user, pagesPerBlock, pageSize), store)
	must(err)
	d := newInvalidator(g, user)
	dev.ResetCounters()
	allocs := d.drive(seed, t.IsolatedCalls)
	st := g.Stats()
	counters := dev.Counters()
	pvWrites := counters.Count(flash.OpPageWrite, flash.PurposePageValidity)
	m["gecko.update_ns_p50"] = quantile(d.updates, 0.5)
	m["gecko.update_ns_p999"] = quantile(d.updates, 0.999)
	m["gecko.update_allocs"] = allocs
	m["gecko.query_ns"] = mean(d.queries)
	m["gecko.query_page_reads"] = float64(st.QueryPageReads) / float64(st.Queries)
	m["gecko.flushes_per_kupdate"] = 1000 * float64(st.Flushes) / float64(st.Updates)
	m["gecko.merges_per_kupdate"] = 1000 * float64(st.Merges) / float64(st.Updates)
	m["gecko.merged_runs_per_merge"] = float64(st.MergedRuns) / float64(st.Merges)
	m["gecko.flash_writes_per_update"] = float64(pvWrites) / float64(st.Updates)
	m["gecko.runs"] = float64(g.RunCount())
	m["gecko.ram_bytes"] = float64(g.RAMBytes())
	m["gecko.scan_validity_ns"] = median(timeEach(5, func() {
		_, err := g.ScanValidity()
		must(err)
	}))
	m["gecko.recover_dirs_ns"] = median(timeEach(5, func() {
		g.CrashRAM()
		must(g.RecoverDirectories())
	}))

	ram, err := pvb.NewRAMPVB(user, pagesPerBlock)
	must(err)
	d = newInvalidator(ram, user)
	d.drive(seed, t.IsolatedCalls)
	m["pvb.ram_update_ns"] = mean(d.updates)

	_, store = newStore()
	fp, err := pvb.NewFlashPVB(user, pagesPerBlock, pageSize, store)
	must(err)
	d = newInvalidator(fp, user)
	d.drive(seed, t.IsolatedCalls)
	m["pvb.flash_update_ns"] = mean(d.updates)
	m["pvb.flash_query_ns"] = mean(d.queries)

	_, store = newStore()
	log, err := pvl.New(pvl.Config{Blocks: user, PagesPerBlock: pagesPerBlock, PageSize: pageSize}, store)
	must(err)
	d = newInvalidator(log, user)
	d.drive(seed, t.IsolatedCalls)
	m["pvl.update_ns"] = mean(d.updates)
	m["pvl.query_ns"] = mean(d.queries)
}

// timeEach times n single calls of fn.
func timeEach(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		fn()
		out[i] = float64(time.Since(start))
	}
	return out
}

// ftl drives one ftl.FTL and, beside it, a one-shard ftl.Engine set
// up the same way and fed the same pages, so that chunk by chunk the two do
// the same work and their difference is the engine's own cost.
func (t isolated) ftl() {
	m, n, seed := t.m, t.IsolatedCalls, t.seed
	opts := ftl.GeckoFTLOptions(isolatedCache)
	dev := flash.MustNewDevice(flashConfig(t.IsolatedBlocks, 1))
	part, err := dev.Partition(0, t.IsolatedBlocks)
	must(err)
	f, err := ftl.New(part, opts)
	must(err)
	eng, err := ftl.NewEngine(flash.MustNewDevice(flashConfig(t.IsolatedBlocks, 1)), opts, 1)
	must(err)
	pages := f.LogicalPages()
	must(fillAndOverwrite(pages, seed, f.Write))
	must(fillAndOverwrite(pages, seed, eng.Write))

	rng := rand.New(rand.NewSource(seed + 1))
	lpns := make([]LPN, n)
	for i := range lpns {
		lpns[i] = LPN(rng.Int63n(pages))
	}
	// Chunk by chunk, first the FTL then the engine, so that whatever the
	// machine does to one it does to the other.
	var before, after runtime.MemStats
	var direct, self []float64
	var allocs uint64
	for lo := 0; lo < n; lo += chunkCalls {
		chunk := lpns[lo:min(lo+chunkCalls, n)]
		runtime.ReadMemStats(&before)
		d := chunks(len(chunk), func(i int) { must(f.Write(chunk[i])) })[0]
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		direct = append(direct, d)
		self = append(self, chunks(len(chunk), func(i int) { must(eng.Write(chunk[i])) })[0]-d)
	}
	// GC and Gecko merges make writes uneven, so the mean, not the median.
	m["ftl.write_ns_per_op"] = mean(direct)
	m["ftl.write_allocs_per_op"] = float64(allocs) / float64(n)
	m["engine.self_ns_per_op"] = median(self)

	// Reads of half a cache of pages stay hits; reads of any page mostly
	// miss (the cache holds 2 % of them).
	for i := 0; i < isolatedCache/2; i++ {
		must(f.Read(LPN(i)))
	}
	m["ftl.read_hit_ns_per_op"] = steady(n, func(i int) { must(f.Read(LPN(i % (isolatedCache / 2)))) })
	m["ftl.read_miss_ns_per_op"] = mean(chunks(n, func(i int) { must(f.Read(lpns[i])) }))

	// Each chunk trims pages that hold data: the chunk before wrote them back.
	var trims []float64
	for lo := 0; lo < n; lo += chunkCalls {
		chunk := lpns[lo:min(lo+chunkCalls, n)]
		trims = append(trims, chunks(len(chunk), func(i int) { must(f.Trim(chunk[i])) })...)
		for _, lpn := range chunk {
			must(f.Write(lpn))
		}
	}
	m["ftl.trim_ns_per_op"] = mean(trims)

	// The engine's checkpoint, encoded and decoded.
	must(eng.Flush())
	file, err := eng.ExportCheckpoint()
	must(err)
	data := checkpoint.Encode(file)
	kib := float64(len(data)) / 1024
	m["checkpoint.bytes"] = float64(len(data))
	m["checkpoint.encode_ns_per_kib"] = median(timeEach(50, func() { sink += len(checkpoint.Encode(file)) })) / kib
	m["checkpoint.decode_ns_per_kib"] = median(timeEach(50, func() {
		_, err := checkpoint.Decode(data)
		must(err)
	})) / kib
}

// queue drives a bare queue.Engine whose Exec does nothing, at the
// device's depth: what a ticket costs with no FTL under it.
func (t isolated) queue() {
	m, n := t.m, t.IsolatedCalls
	const shards, depth = 8, 32
	q, err := queue.New(queue.Config{
		Shards: shards, Depth: depth, Policy: queue.AdmitWait,
		ShardOf: func(lpn flash.LPN) (int, error) { return int(lpn % shards), nil },
		Exec:    func(int, queue.Request) error { return nil },
	})
	must(err)
	defer q.Close()
	ctx := context.Background()
	trips := perCall(n, func(i int) {
		tk, err := q.Submit(ctx, queue.Request{Kind: queue.OpWrite, LPN: LPN(i)})
		must(err)
		must(tk.Wait(ctx))
	})
	m["queue.roundtrip_ns_p50"] = quantile(trips, 0.5)
	m["queue.roundtrip_ns_p99"] = quantile(trips, 0.99)

	// Submit a window without waiting, as the async workload does; only the
	// submissions are timed.
	tickets := make([]*queue.Ticket, depth)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var windows []float64
	for lo := 0; lo < n; lo += depth {
		start := time.Now()
		for i := range tickets {
			tickets[i], err = q.Submit(ctx, queue.Request{Kind: queue.OpWrite, LPN: LPN(lo + i)})
			must(err)
		}
		windows = append(windows, float64(time.Since(start))/depth)
		for _, tk := range tickets {
			must(tk.Wait(ctx))
		}
	}
	runtime.ReadMemStats(&after)
	m["queue.submit_ns"] = median(windows)
	m["queue.allocs_per_submit"] = float64(after.Mallocs-before.Mallocs) / float64(n)
}

// small drives the layers that are one type each.
func (t isolated) small() {
	m, n, seed := t.m, t.IsolatedCalls, t.seed
	b, other := bitmap.New(pagesPerBlock), bitmap.New(pagesPerBlock)
	other.Set(3)
	m["bitmap.clone_ns"], m["bitmap.clone_allocs"] = withAllocs(n, func(int) { sink += b.Clone().Len() })
	m["bitmap.or_ns"] = steady(n, func(int) { b.Or(other) })

	h, part := stats.NewHistogram(), stats.NewHistogram()
	part.Record(time.Millisecond)
	m["stats.record_ns"] = steady(n, func(i int) { h.Record(time.Duration(i) * time.Microsecond) })
	m["stats.merge_ns"] = steady(n, func(int) { h.Merge(part) })

	pages := int64(full.Blocks * pagesPerBlock * 7 / 10)
	uniform := workload.MustNewUniform(pages, seed)
	zipf := workload.MustNewZipfian(pages, 1.1, seed)
	mixed := workload.MustNewTrimming(workload.MustNewMixed(workload.MustNewZipfian(pages, 1.1, seed), pages, 0.5/0.95, seed+1), pages, 0.05, seed+2)
	m["workload.uniform_next_ns"] = steady(n, func(int) { sink += int(uniform.Next().Page) })
	m["workload.zipfian_next_ns"] = steady(n, func(int) { sink += int(zipf.Next().Page) })
	m["workload.mixed_next_ns"] = steady(n, func(int) { sink += int(mixed.Next().Page) })

	// Appends into a store of four blocks, invalidating the page appended a
	// block earlier, so the store erases and reuses its blocks as it goes.
	dev := flash.MustNewDevice(flashConfig(8, 1))
	store, err := metastore.NewBlockStore(dev, []flash.BlockID{0, 1, 2, 3}, flash.BlockGecko, flash.PurposePageValidity)
	must(err)
	ring := make([]flash.PPN, pagesPerBlock)
	m["metastore.append_ns"] = steady(n, func(i int) {
		if i >= len(ring) {
			must(store.Invalidate(ring[i%len(ring)]))
		}
		ppn, err := store.Append(flash.SpareArea{Tag: uint64(i)})
		must(err)
		ring[i%len(ring)] = ppn
	})
}
