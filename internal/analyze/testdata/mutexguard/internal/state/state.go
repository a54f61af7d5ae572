// Package state exercises mutex-guard: unlocked access to mutex-guarded
// fields.
package state

import "sync"

// Stats follows the standard layout convention: mu guards the fields
// declared after it.
type Stats struct {
	name string

	mu      sync.Mutex
	packets int64
	drops   int64
}

// Name touches only a field declared before the mutex: unguarded by
// convention, no lock required.
func (s *Stats) Name() string { return s.name }

// Packets locks before reading: fine.
func (s *Stats) Packets() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.packets
}

// Drops reads a guarded field without the lock: a data race with every
// concurrent writer.
func (s *Stats) Drops() int64 {
	return s.drops // want `exported method Drops touches "drops", declared after mutex "mu", without locking it`
}

// bump is unexported: by convention the exported caller holds the lock.
func (s *Stats) bump() { s.packets++ }
