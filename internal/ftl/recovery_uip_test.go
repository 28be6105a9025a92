package ftl

import (
	"testing"

	"geckoftl/internal/flash"
	"geckoftl/internal/workload"
)

// TestNoDoubleInvalidationAfterRecovery is the regression test for a latent
// crash-recovery bug: the backwards scan recreates cached mapping entries
// with UIP = true, but the flash-resident before-image that flag identifies
// can already be durably recorded invalid (reported before the crash and
// flushed into a Logarithmic Gecko run, or re-derived by the Appendix C.2.2
// buffer replay) — and for entries recovered at their durably-mapped
// location, the overwrite fast path reports the before-image immediately
// while still carrying UIP forward. Either way the next synchronization
// reported the same page a second time (the C.3.2 spare check cannot object
// while the block remains unerased) and underflowed the rebuilt Blocks
// Validity Counter. Under a skewed workload with checkpoints this fired
// within ~50 post-recovery writes.
func TestNoDoubleInvalidationAfterRecovery(t *testing.T) {
	for _, hotCold := range []bool{false, true} {
		cfg := flash.ScaledConfig(128)
		cfg.PagesPerBlock = 16
		cfg.PageSize = 512
		cfg.OverProvision = 0.7
		dev, err := flash.NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := GeckoFTLOptions(256)
		opts.HotColdSeparation = hotCold
		f, err := New(wholeDevice(t, dev), opts)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.MustNewZipfian(f.LogicalPages(), 1.2, 7)
		trims := workload.MustNewTrimming(gen, f.LogicalPages(), 0.05, 11)
		for cycle := 0; cycle < 3; cycle++ {
			for i := 0; i < 4000; i++ {
				op := trims.Next()
				var err error
				if op.Kind == workload.OpTrim {
					err = f.Trim(op.Page)
				} else {
					err = f.Write(op.Page)
				}
				if err != nil {
					t.Fatalf("hotCold=%v cycle %d op %d: %v", hotCold, cycle, i, err)
				}
			}
			if err := f.PowerFail(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Recover(); err != nil {
				t.Fatalf("hotCold=%v cycle %d: recover: %v", hotCold, cycle, err)
			}
		}
		if err := f.CheckConsistency(); err != nil {
			t.Fatalf("hotCold=%v: post-recovery consistency: %v", hotCold, err)
		}
	}
}
