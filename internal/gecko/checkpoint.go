package gecko

import (
	"fmt"

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

// ExportDirectories snapshots the run directories for a checkpoint, in
// deterministic order: levels ascending, runs in placement order within a
// level. Only directory state is exported; the buffer must have been
// flushed first (Flush), which is the checkpoint writer's responsibility.
func (g *Gecko) ExportDirectories() []RunExport {
	var out []RunExport
	for _, level := range g.levels {
		for _, r := range level {
			re := RunExport{
				ID:        r.id,
				CreateSeq: r.createSeq,
				Level:     r.level,
				Pages:     make([]RunPageExport, 0, len(r.pages)),
			}
			for i := range r.pages {
				p := &r.pages[i]
				re.Pages = append(re.Pages, RunPageExport{
					PPN:    int64(p.ppn),
					MinKey: packKey(p.minKey),
					MaxKey: packKey(p.maxKey),
				})
			}
			out = append(out, re)
		}
	}
	return out
}

// ValidateDirectories checks an exported run set against this instance
// without mutating anything: every run must be well-formed and every page
// must have surviving flash content to relink. A checkpoint that passes
// validation is importable; one that fails must fall back to
// RecoverDirectories.
func (g *Gecko) ValidateDirectories(runs []RunExport) error {
	seenID := make(map[uint64]bool, len(runs))
	for _, re := range runs {
		if seenID[re.ID] {
			return fmt.Errorf("gecko: checkpoint repeats run %d", re.ID)
		}
		seenID[re.ID] = true
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
// does — but without the spare-area scan. The set must be one
// ValidateDirectories accepted on this instance: it is not checked again.
func (g *Gecko) ImportDirectories(runs []RunExport) {
	g.levels = make([][]*run, g.cfg.Levels()+1)
	for _, re := range runs {
		r := &run{id: re.ID, createSeq: re.CreateSeq, level: re.Level, pages: make([]runPage, 0, len(re.Pages))}
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
