package pvl

import (
	"iter"
	"maps"

	"geckoftl/internal/flash"
)

// IsLive reports whether the given flash page currently holds one of the
// log's live pages. The FTL's garbage-collector uses it when a greedy
// victim-selection policy (IB-FTL's) picks a metadata block for collection.
func (l *Log) IsLive(ppn flash.PPN) bool {
	_, ok := l.indexOf[ppn]
	return ok
}

// Relocate informs the log that the garbage-collector moved one of its live
// pages to a new location. It reports whether the old location was live.
func (l *Log) Relocate(old, new flash.PPN) bool {
	idx, ok := l.indexOf[old]
	if ok {
		l.setPage(idx, new)
	}
	return ok
}

// LivePages yields the physical address of every live log page, in no
// particular order. Recovery counts them into per-block valid-page counts.
func (l *Log) LivePages() iter.Seq[flash.PPN] {
	return maps.Values(l.pageOf)
}
