package dlm

import "fmt"

// auditIdle reports the first per-lock state of m that is not idle, as a
// quiescent manager's must be: no grant armed, no successor announced or
// awaited, no pending shared cohort or drain, no poller running, no
// DQNL slot word set and, with leases on, no lease holder.
func auditIdle(m *Manager) error {
	for id, cl := range m.clients {
		var recs []lockRec
		switch c := cl.(type) {
		case *srslClientImpl:
			recs = c.recs
		case *ncosedClientImpl:
			recs = c.recs
		case *dqnlClientImpl:
			for off := 0; off < dqnlSlotSize*m.locks; off += 8 {
				if c.slots.Uint64At(off) != 0 {
					return fmt.Errorf("node %d lock %d: slot word %d set", id, off/dqnlSlotSize, off%dqnlSlotSize)
				}
			}
		}
		for lock, r := range recs {
			switch {
			case r.armed:
				return fmt.Errorf("node %d lock %d: grant armed", id, lock)
			case r.succ != 0:
				return fmt.Errorf("node %d lock %d: successor %d announced", id, lock, r.succ-1)
			case r.succWait:
				return fmt.Errorf("node %d lock %d: successor awaited", id, lock)
			case len(r.queue.waiting) > 0:
				return fmt.Errorf("node %d lock %d: %d queued at the home", id, lock, len(r.queue.waiting))
			case len(r.pendingShared) > 0 || r.pendingDrain != 0:
				return fmt.Errorf("node %d lock %d: shared cohort %v or drain %d pending", id, lock, r.pendingShared, r.pendingDrain-1)
			case r.polling:
				return fmt.Errorf("node %d lock %d: polling", id, lock)
			case r.lease != nil && r.lease.holder != -1:
				return fmt.Errorf("node %d lock %d: lease held by %d", id, lock, r.lease.holder)
			}
		}
	}
	return nil
}
