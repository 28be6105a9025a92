package flash

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// shardPartitions carves the device the way ftl.NewEngine does: n equal
// contiguous ranges from block 0.
func shardPartitions(t *testing.T, dev *Device, n int) []*Partition {
	t.Helper()
	per := dev.Config().Blocks / n
	parts := make([]*Partition, n)
	for i := range parts {
		p, err := dev.Partition(BlockID(i*per), per)
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		parts[i] = p
	}
	return parts
}

// TestPartitionLatchPerDie pins which partitions share a latch: die-aligned
// shards (256 blocks on 4 dies) get one latch each, shards that split a die
// (250 blocks on 3 dies: the second shard straddles dies 0 and 1, the third
// dies 1 and 2) get one latch between them, and a die no partition owns keeps
// a latch of its own.
func TestPartitionLatchPerDie(t *testing.T) {
	aligned := MustNewDevice(topoConfig(256, 4, 1))
	parts := shardPartitions(t, aligned, 4)
	for i, p := range parts {
		for j := range i {
			if p.Latch() == parts[j].Latch() {
				t.Errorf("die-aligned partitions %d and %d share a latch", j, i)
			}
		}
		if p.Latch() != aligned.latch(p.base) {
			t.Errorf("partition %d's latch does not latch its die", i)
		}
	}

	sharing := MustNewDevice(topoConfig(250, 3, 1))
	parts = shardPartitions(t, sharing, 3)
	for i, p := range parts {
		if p.Latch() != parts[0].Latch() {
			t.Errorf("partition %d has a latch of its own on a die-sharing geometry", i)
		}
	}
	for die := range sharing.dies {
		if sharing.dies[die].latch != parts[0].Latch() {
			t.Errorf("die %d is not latched by its partitions' latch", die)
		}
	}
	// Block 249 is on die 2 but outside every partition (3 × 83 = 249).
	if sharing.latch(249) != parts[0].Latch() {
		t.Error("a block outside the partitions on a partitioned die has another latch")
	}

	free := MustNewDevice(topoConfig(64, 4, 1))
	p, err := free.Partition(0, 16) // die 0
	if err != nil {
		t.Fatal(err)
	}
	if free.latch(16) == p.Latch() || free.latch(16) != &free.dies[1].own {
		t.Error("die 1, which no partition owns, lost its own latch")
	}
}

// TestPartitionRefusesTwoLatches: a range over dies that two partitions'
// latches already serialize is refused, and the refusal changes no die's
// latch; a range over one partition's dies and unowned ones joins that
// partition's latch.
func TestPartitionRefusesTwoLatches(t *testing.T) {
	dev := MustNewDevice(topoConfig(64, 4, 1)) // 16 blocks a die
	a, err := dev.Partition(0, 16)             // die 0
	if err != nil {
		t.Fatal(err)
	}
	b, err := dev.Partition(32, 16) // die 2
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Partition(8, 32); !errors.Is(err, ErrLatchConflict) { // dies 0-2
		t.Fatalf("partition over a's and b's dies: err = %v, want ErrLatchConflict", err)
	}
	if dev.latch(16) != &dev.dies[1].own || dev.latch(0) != a.Latch() || dev.latch(32) != b.Latch() {
		t.Fatal("a refused partition changed a die's latch")
	}
	c, err := dev.Partition(8, 16) // dies 0-1: a's latch, and die 1 joins it
	if err != nil {
		t.Fatal(err)
	}
	if c.Latch() != a.Latch() || dev.latch(16) != a.Latch() {
		t.Fatal("a partition over a's die and a free one did not join a's latch")
	}
	// Die 1 now belongs to a's latch too, so a partition over dies 1-2
	// spans two latches.
	if _, err := dev.Partition(16, 32); !errors.Is(err, ErrLatchConflict) {
		t.Fatalf("partition over dies 1-2: err = %v, want ErrLatchConflict", err)
	}
	if d, err := dev.Partition(48, 16); err != nil || d.Latch() == a.Latch() || d.Latch() == b.Latch() {
		t.Fatalf("partition over free die 3: err = %v, or it took another partition's latch", err)
	}
}

// TestDeviceCallWaitsForPartitionLatch: while a partition's latch is held, a
// Device call on one of its dies — an op or an aggregate —
// does not complete, and completes once the latch is released; a Device call
// on a die the partition does not own does not wait.
func TestDeviceCallWaitsForPartitionLatch(t *testing.T) {
	cfg := topoConfig(64, 2, 1) // 32 blocks a die
	calls := []struct {
		name string
		call func(*Device) error
	}{
		{"WritePage", func(d *Device) error {
			_, err := d.WritePage(0, SpareArea{Logical: 1}, PurposeUserWrite)
			return err
		}},
		{"ReadSpare", func(d *Device) error {
			_, _, err := d.ReadSpare(PPNOf(5, 0, cfg.PagesPerBlock), PurposeRecovery)
			return err
		}},
		{"Counters", func(d *Device) error { d.Counters(); return nil }},
		{"BlocksEndurance", func(d *Device) error { d.BlocksEndurance(); return nil }},
		{"DieTimes", func(d *Device) error { d.DieTimes(); return nil }},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			dev := MustNewDevice(cfg)
			p, err := dev.Partition(0, 32) // die 0
			if err != nil {
				t.Fatal(err)
			}
			p.Latch().Lock()
			// A call on die 1 alone goes through.
			if _, err := dev.WritePage(PPNOf(40, 0, cfg.PagesPerBlock), SpareArea{}, PurposeUserWrite); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- c.call(dev) }()
			select {
			case err := <-done:
				p.Latch().Unlock()
				t.Fatalf("the call returned (err %v) while the partition's latch was held", err)
			case <-time.After(20 * time.Millisecond):
			}
			p.Latch().Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLatchConcurrentPartitionsAndDevice runs one goroutine per partition of
// a die-sharing device (250 blocks on 3 dies), each driving its partition
// under the partition's latch, against a goroutine that reads the device's
// aggregates. Under -race, a partition op or a Device call that skipped the
// latch is reported here.
func TestLatchConcurrentPartitionsAndDevice(t *testing.T) {
	cfg := topoConfig(250, 3, 1)
	dev := MustNewDevice(cfg)
	parts := shardPartitions(t, dev, 3)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			dev.Counters()
			dev.SimulatedTime()
			dev.BlocksEndurance()
			dev.DieTimes()
		}
	}()
	var writers sync.WaitGroup
	for i, p := range parts {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for b := BlockID(0); b < BlockID(p.Config().Blocks); b++ {
				for o := 0; o < cfg.PagesPerBlock; o++ {
					if err := latched(p, func() error {
						ppn := PPNOf(b, o, cfg.PagesPerBlock)
						if _, err := p.WritePage(ppn, SpareArea{Logical: LPN(i)}, PurposeUserWrite); err != nil {
							return err
						}
						if _, _, err := p.ReadSpare(ppn, PurposeRecovery); err != nil {
							return err
						}
						p.Counters()
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
				if err := latched(p, func() error { return p.EraseBlock(b, PurposeGCErase) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	c := dev.Counters()
	if got, want := c.TotalOp(OpPageWrite), int64(3*83*cfg.PagesPerBlock); got != want {
		t.Fatalf("counted %d programs, want %d", got, want)
	}
}

// latched runs f under p's latch.
func latched(p *Partition, f func() error) error {
	p.Latch().Lock()
	defer p.Latch().Unlock()
	return f()
}

// BenchmarkPartitionOps measures a program, a page read and a spare read
// through a Partition, which takes no lock (its caller is its only user, as
// an engine shard holding the latch is), against the same ops through the
// Device, which takes the die's latch per op. The difference is what one
// uncontended mutex costs a flash op.
func BenchmarkPartitionOps(b *testing.B) {
	// pageIO is what the benchmark calls, which the Device and a Partition
	// both have.
	type pageIO interface {
		WritePage(ppn PPN, spare SpareArea, p Purpose) (uint64, error)
		ReadPage(ppn PPN, p Purpose) error
		ReadSpare(ppn PPN, p Purpose) (SpareArea, bool, error)
		EraseBlock(block BlockID, p Purpose) error
	}
	cfg := topoConfig(256, 1, 1)
	cfg.PagesPerBlock = 64
	pages := cfg.PhysicalPages()
	for _, via := range []string{"device", "partition"} {
		plane := func() pageIO {
			dev := MustNewDevice(cfg)
			if via == "device" {
				return dev
			}
			p, err := dev.Partition(0, cfg.Blocks)
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
		spare := SpareArea{Logical: 1}
		b.Run(fmt.Sprintf("program/%s", via), func(b *testing.B) {
			pl := plane()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ppn := PPN(i % pages)
				if ppn == 0 && i > 0 {
					b.StopTimer()
					for blk := BlockID(0); blk < BlockID(cfg.Blocks); blk++ {
						if err := pl.EraseBlock(blk, PurposeGCErase); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				if _, err := pl.WritePage(ppn, spare, PurposeUserWrite); err != nil {
					b.Fatal(err)
				}
			}
		})
		full := func() pageIO {
			pl := plane()
			for ppn := PPN(0); ppn < PPN(pages); ppn++ {
				if _, err := pl.WritePage(ppn, spare, PurposeUserWrite); err != nil {
					b.Fatal(err)
				}
			}
			return pl
		}
		b.Run(fmt.Sprintf("read/%s", via), func(b *testing.B) {
			pl := full()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pl.ReadPage(PPN(i*7919%pages), PurposeUserRead); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("spare/%s", via), func(b *testing.B) {
			pl := full()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.ReadSpare(PPN(i*7919%pages), PurposeRecovery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
