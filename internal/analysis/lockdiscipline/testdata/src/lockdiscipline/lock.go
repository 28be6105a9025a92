// Fixture for the lockdiscipline analyzer: unpaired Lock calls.
package lockdiscipline

import "sync"

type table struct {
	rw   sync.RWMutex
	rows map[int]int
}

// BadForgottenUnlock locks and returns without any unlock in the function.
func (t *table) BadForgottenUnlock() int {
	t.rw.Lock() // want `t\.rw\.Lock\(\) has no matching t\.rw\.Unlock\(\) in this function`
	return len(t.rows)
}

// GoodPointerReceiver locks and unlocks through a pointer.
func (t *table) GoodPointerReceiver() int {
	t.rw.Lock()
	defer t.rw.Unlock()
	return len(t.rows)
}

// GoodRLockPair pairs RLock with a deferred RUnlock.
func (t *table) GoodRLockPair() int {
	t.rw.RLock()
	defer t.rw.RUnlock()
	return len(t.rows)
}

// GoodWaivedHandoff documents a deliberate lock handoff to the caller.
func (t *table) GoodWaivedHandoff() {
	//geckolint:ignore lockdiscipline caller releases via ReleaseTable
	t.rw.Lock()
}
