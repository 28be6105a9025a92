package gecko

import (
	"fmt"
	"slices"

	"geckoftl/internal/flash"
)

// RunPageExport is the serializable directory entry for one run page: its
// physical location and packed key range. The page's entry content is not
// exported — it is flash-resident and survives on the device; import
// relinks it by physical address exactly as crash recovery does.
type RunPageExport struct {
	PPN    int64
	MinKey uint32
	MaxKey uint32
}

// RunExport is the serializable form of one run's RAM directory.
type RunExport struct {
	ID        uint64
	CreateSeq uint64
	Level     int
	Pages     []RunPageExport
}

// ExportDirectories snapshots the run directories for a checkpoint into
// runs, in deterministic order: levels ascending, runs in placement order
// within a level. It overwrites runs, reusing its storage and that of each
// run's Pages, and returns it resliced. Only directory state is exported;
// the buffer must have been flushed first (Flush), which is the checkpoint
// writer's responsibility.
func (g *Gecko) ExportDirectories(runs []RunExport) []RunExport {
	// Within its capacity the slice holds the Pages of earlier exports,
	// which a growth keeps too.
	if n := g.RunCount(); cap(runs) < n {
		runs = slices.Grow(runs[:cap(runs)], n-cap(runs))
	}
	runs = runs[:0]
	for _, level := range g.levels {
		for _, r := range level {
			// The runs of the last export sat at other places: of the Pages
			// not taken yet, the run takes the smallest that holds it.
			runs = runs[:len(runs)+1]
			rest := runs[len(runs)-1 : cap(runs)]
			fit := 0
			for j := range rest {
				if c := cap(rest[j].Pages); c >= len(r.pages) && (cap(rest[fit].Pages) < len(r.pages) || c < cap(rest[fit].Pages)) {
					fit = j
				}
			}
			rest[0].Pages, rest[fit].Pages = rest[fit].Pages, rest[0].Pages
			re := &rest[0]
			re.ID, re.CreateSeq, re.Level = r.id, r.createSeq, r.level
			re.Pages = slices.Grow(re.Pages[:0], len(r.pages))[:len(r.pages)]
			for i := range r.pages {
				p := &r.pages[i]
				re.Pages[i] = RunPageExport{
					PPN:    int64(p.ppn),
					MinKey: packKey(p.minKey),
					MaxKey: packKey(p.maxKey),
				}
			}
		}
	}
	return runs
}

// ValidateDirectories checks an exported run set against this instance
// without mutating anything: every run must be well-formed and every page
// must have surviving flash content to relink. A checkpoint that passes
// validation is importable; one that fails must fall back to
// RecoverDirectories.
func (g *Gecko) ValidateDirectories(runs []RunExport) error {
	for i, re := range runs {
		// A Gecko holds a run a level or so: comparing each pair costs less
		// than a set.
		for _, prev := range runs[:i] {
			if prev.ID == re.ID {
				return fmt.Errorf("gecko: checkpoint repeats run %d", re.ID)
			}
		}
		if re.Level < 0 || re.Level > g.cfg.Levels() {
			return fmt.Errorf("gecko: checkpoint run %d at level %d of %d", re.ID, re.Level, g.cfg.Levels())
		}
		if len(re.Pages) == 0 {
			return fmt.Errorf("gecko: checkpoint run %d has no pages", re.ID)
		}
		if sizeLevel := g.cfg.LevelOfRunPages(len(re.Pages)); sizeLevel > re.Level {
			return fmt.Errorf("gecko: checkpoint run %d of %d pages cannot sit at level %d", re.ID, len(re.Pages), re.Level)
		}
		for _, p := range re.Pages {
			if _, ok := g.pageContent[flash.PPN(p.PPN)]; !ok {
				return fmt.Errorf("gecko: checkpoint run %d references page %d with no content", re.ID, p.PPN)
			}
		}
	}
	return nil
}

// ImportDirectories replaces the RAM run directories with an exported set,
// relinking page content from the surviving flash image and ratcheting the
// run-ID and creation-sequence counters, exactly as RecoverDirectories
// does — but without the spare-area scan, and into spare runs where they
// fit. The set must be one ValidateDirectories accepted on this instance: it
// is not checked again.
func (g *Gecko) ImportDirectories(runs []RunExport) {
	g.retireLevels()
	for _, re := range runs {
		r := g.newRun(len(re.Pages))
		r.id, r.createSeq, r.level = re.ID, re.CreateSeq, re.Level
		for _, p := range re.Pages {
			ppn := flash.PPN(p.PPN)
			r.pages = append(r.pages, runPage{
				ppn:    ppn,
				minKey: unpackKey(p.MinKey),
				maxKey: unpackKey(p.MaxKey),
				slab:   g.pageContent[ppn],
			})
		}
		g.adoptRun(r)
	}
}
