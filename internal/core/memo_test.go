package core

import (
	"bytes"
	"testing"

	"mpicomp/internal/gpusim"
)

// relayPayload compresses n smooth values on a fresh engine and returns
// the wire payload, its header and the source bytes.
func relayPayload(t *testing.T, cfg Config, n int, seed int64) ([]byte, Header, []byte) {
	t.Helper()
	e, dev, clk := newTestEngine(t, cfg)
	buf := deviceBufferWith(dev, smooth(n, seed))
	payload, hdr := e.Compress(clk, buf)
	if !hdr.Compressed {
		t.Fatalf("%v: %d values were not compressed", cfg.Algorithm, n)
	}
	return payload, hdr, buf.Data
}

func poisoned(dev *gpusim.GPUDevice, n int) *gpusim.Buffer {
	b := &gpusim.Buffer{Data: make([]byte, n), Loc: gpusim.Device, Dev: dev}
	for i := range b.Data {
		b.Data[i] = 0xA5
	}
	return b
}

// TestDecodeMemoHitIsBitIdentical: a second receiver of a relayed
// payload gets its bytes from the memo — bit-identical to a real decode
// even into a poisoned buffer — and pays exactly the simulated time and
// phase charges of a real decode.
func TestDecodeMemoHitIsBitIdentical(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: ModeOpt, Algorithm: AlgoMPC},
		{Mode: ModeOpt, Algorithm: AlgoZFP, ZFPRate: 16},
		{Mode: ModeNaive, Algorithm: AlgoZFP, ZFPRate: 8},
	} {
		payload, hdr, _ := relayPayload(t, cfg, 1<<18, 5)
		memo := NewDecodeMemo(cfg)

		first, dev1, clk1 := newTestEngine(t, cfg)
		first.SetDecodeMemo(memo)
		want := poisoned(dev1, hdr.OrigBytes)
		if err := first.DecompressRelay(clk1, hdr, payload, want); err != nil {
			t.Fatal(err)
		}

		second, dev2, clk2 := newTestEngine(t, cfg)
		second.SetDecodeMemo(memo)
		got := poisoned(dev2, hdr.OrigBytes)
		if err := second.DecompressRelay(clk2, hdr, payload, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%v: memo hit wrote different bytes than the decode", cfg.Algorithm)
		}
		if first.Host.DecodeMemoHits != 0 || second.Host.DecodeMemoHits != 1 {
			t.Fatalf("%v: hits first=%d second=%d, want 0 and 1", cfg.Algorithm,
				first.Host.DecodeMemoHits, second.Host.DecodeMemoHits)
		}
		if second.Host.CodecRuns != 0 {
			t.Fatalf("%v: a memo hit ran %d codec batches", cfg.Algorithm, second.Host.CodecRuns)
		}
		if clk1.Now() != clk2.Now() || first.Stats != second.Stats ||
			first.Decompressions != second.Decompressions {
			t.Fatalf("%v: simulated accounting differs: miss %v %v, hit %v %v", cfg.Algorithm,
				clk1.Now(), first.Stats.String(), clk2.Now(), second.Stats.String())
		}
		if first.pool != nil {
			for _, e := range []*Engine{first, second} {
				if e.offPool.FreeCount() != e.cfg.PoolBuffers {
					t.Fatalf("%v: d_off pool unbalanced after relay decode", cfg.Algorithm)
				}
			}
		}
	}
}

// TestDecodeMemoPlainDecompressBypasses: point-to-point and typed
// receives use Decompress, which never consults the memo.
func TestDecodeMemoPlainDecompressBypasses(t *testing.T) {
	cfg := Config{Mode: ModeOpt, Algorithm: AlgoMPC}
	payload, hdr, _ := relayPayload(t, cfg, 1<<16, 6)
	memo := NewDecodeMemo(cfg)
	e, dev, clk := newTestEngine(t, cfg)
	e.SetDecodeMemo(memo)
	for i := 0; i < 2; i++ {
		if err := e.Decompress(clk, hdr, payload, poisoned(dev, hdr.OrigBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(memo.entries); n != 0 || e.Host.DecodeMemoHits != 0 {
		t.Fatalf("Decompress touched the memo: entries=%d hits=%d", n, e.Host.DecodeMemoHits)
	}
}

// TestDecodeMemoPayloadBytesDecide: a payload with the same header and
// checksum as a recorded one but different bytes is a miss — the key only
// narrows the search, byte equality decides.
func TestDecodeMemoPayloadBytesDecide(t *testing.T) {
	cfg := Config{Mode: ModeOpt, Algorithm: AlgoMPC}
	payload, hdr, src := relayPayload(t, cfg, 1<<16, 7)
	m := NewDecodeMemo(cfg)
	m.store(hdr, payload, src)

	dst := make([]byte, len(src))
	if !m.load(hdr, append([]byte(nil), payload...), dst) || !bytes.Equal(dst, src) {
		t.Fatal("an equal (non-aliased) payload missed")
	}
	other := append([]byte(nil), payload...)
	other[len(other)/2] ^= 0x10
	if m.load(hdr, other, dst) {
		t.Fatal("same header and CRC with different payload bytes hit")
	}
	moved := hdr
	moved.PartBytes = append([]int(nil), hdr.PartBytes...)
	moved.PartBytes[0]--
	if m.load(moved, payload, dst) {
		t.Fatal("a different partition table hit")
	}
}

// TestDecodeMemoRejectsCorruptPayload: a payload whose CRC disagrees
// with its header never enters the memo.
func TestDecodeMemoRejectsCorruptPayload(t *testing.T) {
	cfg := Config{Mode: ModeOpt, Algorithm: AlgoZFP}
	payload, hdr, src := relayPayload(t, cfg, 1<<16, 8)
	m := NewDecodeMemo(cfg)
	bad := append([]byte(nil), payload...)
	bad[3] ^= 0x01
	m.store(hdr, bad, src)
	if n := len(m.entries); n != 0 {
		t.Fatalf("corrupt payload recorded (%d entries)", n)
	}
	m.store(hdr, payload, src)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeMemoFIFOBudgets: the memo evicts oldest-first to stay within
// both the entry cap and the byte budget, and never records a decode
// larger than the whole budget.
func TestDecodeMemoFIFOBudgets(t *testing.T) {
	cfg := Config{Mode: ModeOpt, Algorithm: AlgoMPC}
	type rec struct {
		payload []byte
		hdr     Header
		src     []byte
	}
	var recs []rec
	for i := 0; i < 4; i++ {
		p, h, s := relayPayload(t, cfg, 1<<16, int64(10+i))
		recs = append(recs, rec{p, h, s})
	}
	size := len(recs[0].src) + len(recs[0].payload)
	has := func(m *DecodeMemo, i int) bool {
		return m.load(recs[i].hdr, recs[i].payload, make([]byte, len(recs[i].src)))
	}

	// Entry cap: three entries, four stores.
	cfg.CacheEntries = 3
	m := NewDecodeMemo(cfg)
	for _, r := range recs {
		m.store(r.hdr, r.payload, r.src)
	}
	if n := len(m.entries); n != 3 || has(m, 0) || !has(m, 1) || !has(m, 3) {
		t.Fatalf("entry cap: entries=%d, oldest kept=%v", n, has(m, 0))
	}

	// Byte budget: room for two entries (sizes differ by a few payload
	// bytes, so leave slack below a third).
	cfg.CacheEntries = 16
	cfg.CacheBudgetBytes = 2*size + size/2
	m = NewDecodeMemo(cfg)
	for _, r := range recs {
		m.store(r.hdr, r.payload, r.src)
	}
	n, b := len(m.entries), m.bytes
	if n != 2 || b > cfg.CacheBudgetBytes || has(m, 1) || !has(m, 2) || !has(m, 3) {
		t.Fatalf("byte budget: entries=%d bytes=%d (budget %d)", n, b, cfg.CacheBudgetBytes)
	}

	// Larger than the budget: never recorded.
	cfg.CacheBudgetBytes = size / 2
	m = NewDecodeMemo(cfg)
	m.store(recs[0].hdr, recs[0].payload, recs[0].src)
	if len(m.entries) != 0 {
		t.Fatal("a decode larger than the budget was recorded")
	}
}

// TestDecodeMemoOffWithCache: disabling the compress-once cache
// (CacheEntries < 0) disables the memo too, and relay decodes still work.
func TestDecodeMemoOffWithCache(t *testing.T) {
	if NewDecodeMemo(Config{}) == nil {
		t.Fatal("default config has no memo")
	}
	cfg := Config{Mode: ModeOpt, Algorithm: AlgoMPC, CacheEntries: -1}
	if m := NewDecodeMemo(cfg); m != nil {
		t.Fatal("memo enabled with the cache off")
	}
	payload, hdr, src := relayPayload(t, cfg, 1<<16, 9)
	e, dev, clk := newTestEngine(t, cfg)
	e.SetDecodeMemo(NewDecodeMemo(cfg))
	for i := 0; i < 2; i++ {
		dst := poisoned(dev, hdr.OrigBytes)
		if err := e.DecompressRelay(clk, hdr, payload, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst.Data, src) {
			t.Fatal("relay decode without a memo is wrong")
		}
	}
	if e.Host.DecodeMemoHits != 0 {
		t.Fatal("hits counted without a memo")
	}
}

// TestDecodeMemoWarmAllocatesNothing: a warm hit, and a warm store that
// evicts, allocate nothing.
func TestDecodeMemoWarmAllocatesNothing(t *testing.T) {
	cfg := Config{Mode: ModeOpt, Algorithm: AlgoZFP, CacheEntries: 1}
	payload, hdr, src := relayPayload(t, cfg, 1<<18, 11)
	memo := NewDecodeMemo(cfg)
	e, dev, clk := newTestEngine(t, cfg)
	e.SetDecodeMemo(memo)
	dst := poisoned(dev, hdr.OrigBytes)
	if err := e.DecompressRelay(clk, hdr, payload, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := e.DecompressRelay(clk, hdr, payload, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm hit allocated %.1f objects, want 0", allocs)
	}

	p2, h2, s2 := relayPayload(t, cfg, 1<<18, 12)
	memo.store(h2, p2, s2)
	allocs = testing.AllocsPerRun(10, func() {
		memo.store(hdr, payload, src) // evicts p2, reusing its buffers
		memo.store(h2, p2, s2)
	})
	if allocs != 0 {
		t.Errorf("warm store allocated %.1f objects, want 0", allocs)
	}
}
