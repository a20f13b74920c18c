package main

import (
	"sort"
	"sync"
	"time"

	"smartdrill/internal/server"
)

// memBackend is the session backend of the durable workload while it is
// timed: an in-process server.SessionBackend holding the latest snapshot
// record per session. Every mutation still goes through the server's
// write-through path (snapshot encoding, seq ordering, Save), but no
// fsync: on a disk shared with other tenants, fsync latency moved the
// durable workload's cheap operations by more than 2x between runs.
// After the run the records are written to a server.DirBackend and a
// fresh server recovers the sessions from that directory (restartTrees),
// so the disk path is still exercised and checked, and timed there.
type memBackend struct {
	mu   sync.Mutex
	recs map[string][]byte
}

func newMemBackend() *memBackend { return &memBackend{recs: map[string][]byte{}} }

func (b *memBackend) Save(id string, data []byte) error {
	cp := append([]byte(nil), data...)
	b.mu.Lock()
	b.recs[id] = cp
	b.mu.Unlock()
	return nil
}

func (b *memBackend) Load(id string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.recs[id]
	if !ok {
		return nil, server.ErrNoSnapshot
	}
	return append([]byte(nil), data...), nil
}

func (b *memBackend) Delete(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.recs[id]; !ok {
		return server.ErrNoSnapshot
	}
	delete(b.recs, id)
	return nil
}

func (b *memBackend) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]string, 0, len(b.recs))
	for id := range b.recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// flushTo writes every stored record to dst and returns how long each
// Save took.
func (b *memBackend) flushTo(dst server.SessionBackend) ([]time.Duration, error) {
	ids, _ := b.List()
	took := make([]time.Duration, 0, len(ids))
	for _, id := range ids {
		data, err := b.Load(id)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := dst.Save(id, data); err != nil {
			return nil, err
		}
		took = append(took, time.Since(start))
	}
	return took, nil
}
