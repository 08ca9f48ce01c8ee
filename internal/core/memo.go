package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
)

// The decode-once memo.
//
// Relay collectives (Bcast, Allgather, their hierarchical forms and the
// ring allreduce's allgather phase) compress a block once and forward the
// same wire payload to P-1 receivers, each of which runs a decompress
// kernel. The compress-once cache (cache.go) already makes the send side
// run its host codec once; the memo is the receive-side mirror. It keeps
// the decoded output of recently decoded relay payloads, so the second
// and later receivers of one payload copy the bytes instead of decoding
// them again on the host.
//
// Only host work is memoized. The receiver's simulated decompress
// kernels, stream syncs, d_off pool traffic and phase charges run exactly
// as on a miss, so simulated time, the Decompressions counter and every
// stats line are identical with the memo on or off.
//
// A hit needs both the key (the header fields the decode depends on plus
// the payload's CRC32-C) and byte equality of the payload with the
// recorded one. The equality check is what makes a hit exact rather than
// probable: it costs nothing when the slices alias (receivers get the
// sender's own slice, relays forward it verbatim) and a memcmp otherwise.

// memoKey holds the header fields a decode depends on. PartBytes, the
// remaining one, is a slice and is compared separately.
type memoKey struct {
	algo       Algorithm
	rate, dim  int
	orig, comp int
	crc        uint32
}

func memoKeyOf(hdr Header) memoKey {
	return memoKey{
		algo: hdr.Algo, rate: hdr.Rate, dim: hdr.Dim,
		orig: hdr.OrigBytes, comp: hdr.CompBytes, crc: hdr.Checksum,
	}
}

// memoEntry is one decoded relay payload. payload is the wire slice,
// shared read-only with the transport; parts and out are owned.
type memoEntry struct {
	key     memoKey
	parts   []int
	payload []byte
	out     []byte
}

func (m *memoEntry) matches(hdr Header, payload []byte) bool {
	return m.key == memoKeyOf(hdr) && slices.Equal(m.parts, hdr.PartBytes) &&
		bytes.Equal(m.payload, payload)
}

// size is what the entry holds against the byte budget: the decoded
// output it owns plus the wire payload it keeps alive.
func (m *memoEntry) size() int { return len(m.out) + len(m.payload) }

// DecodeMemo is a world-wide decode-once memo, shared by the engines of
// every rank (Engine.SetDecodeMemo) and consulted only by
// Engine.DecompressRelay. It is bounded by the engine configuration's
// CacheEntries and CacheBudgetBytes and evicts oldest-first. Safe for
// concurrent use; hits copy under a read lock, so receivers of the same
// payload serve themselves in parallel (a warm 4x2 ZFP Bcast+Allgather
// ran ~25% faster than with a plain mutex on a 2-vCPU host).
//
// A nil *DecodeMemo is valid and never hits.
type DecodeMemo struct {
	maxEntries int
	budget     int

	mu      sync.RWMutex
	entries []memoEntry // oldest first
	bytes   int
}

// NewDecodeMemo returns a memo sized by cfg's compress-once cache budget,
// or nil when that cache is disabled (CacheEntries < 0): the memo is the
// cache's receive-side mirror and is switched off with it.
func NewDecodeMemo(cfg Config) *DecodeMemo {
	cc := cfg.withDefaults()
	if cc.CacheEntries <= 0 || cc.CacheBudgetBytes <= 0 {
		return nil
	}
	return &DecodeMemo{
		maxEntries: cc.CacheEntries,
		budget:     cc.CacheBudgetBytes,
		entries:    make([]memoEntry, 0, min(cc.CacheEntries, 64)),
	}
}

// load copies the recorded decode of (hdr, payload) into dst and reports
// whether there was one.
func (m *DecodeMemo) load(hdr Header, payload, dst []byte) bool {
	if m == nil {
		return false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := range m.entries {
		if m.entries[i].matches(hdr, payload) {
			copy(dst, m.entries[i].out)
			return true
		}
	}
	return false
}

// store records out as the decode of (hdr, payload). A payload whose
// CRC32-C disagrees with its header is never recorded: receivers verify
// before decoding, and the memo re-checks so that a corrupted payload
// can never be served to a later receiver. Oldest entries are evicted to
// respect the entry and byte budgets, and an evicted entry's buffers are
// reused, so a warm memo records without allocating.
//
//simlint:nocharge host-side bookkeeping; the receiver charged its own verify pass and decode kernel
func (m *DecodeMemo) store(hdr Header, payload, out []byte) {
	if m == nil || len(out)+len(payload) > m.budget || Checksum(payload) != hdr.Checksum {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.entries {
		if m.entries[i].matches(hdr, payload) {
			return // another receiver recorded it first
		}
	}
	var spare memoEntry
	for len(m.entries) > 0 &&
		(len(m.entries) >= m.maxEntries || m.bytes+len(out)+len(payload) > m.budget) {
		old := m.entries[0]
		m.bytes -= old.size()
		copy(m.entries, m.entries[1:])
		m.entries[len(m.entries)-1] = memoEntry{}
		m.entries = m.entries[:len(m.entries)-1]
		if cap(old.out) > cap(spare.out) {
			spare = old
		}
	}
	ent := memoEntry{
		key:     memoKeyOf(hdr),
		parts:   append(spare.parts[:0], hdr.PartBytes...),
		payload: payload,
		out:     append(spare.out[:0], out...),
	}
	m.entries = append(m.entries, ent)
	m.bytes += ent.size()
}

// Verify re-checks every recorded payload against the checksum in its
// key. The memo records only verified payloads, so an error here means a
// corrupted payload got in.
//
//simlint:nocharge a test-side audit, outside any simulated operation
func (m *DecodeMemo) Verify() error {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := range m.entries {
		if got := Checksum(m.entries[i].payload); got != m.entries[i].key.crc {
			return fmt.Errorf("%w: memo entry %d holds a payload with CRC %08x, key says %08x",
				ErrChecksum, i, got, m.entries[i].key.crc)
		}
	}
	return nil
}
