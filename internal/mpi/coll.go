package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"mpicomp/internal/core"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/simtime"
)

// Collective tags live in their own namespace, built by collTag (heal.go)
// from the algorithm's base offset plus this rank's (recovery epoch,
// operation index) context. Ranks execute collectives in program order, so
// the context stays in lockstep without communication; a retried attempt
// after a mid-operation failure uses a fresh epoch, which is what keeps a
// revoked attempt's stale envelopes from ever matching the retry.

// collView is the dense rank space a collective runs over: the full world
// normally, or the surviving subset once the world has shrunk (ULFM's
// MPIX_Comm_shrink). Algorithms compute neighbors and tree edges in view
// coordinates [0, size) and translate to world ranks through real(); the
// identity view (live == nil) translates to the same world ranks — and
// therefore the same message pattern and timings — as the pre-shrink code.
type collView struct {
	size  int
	vrank int
	live  []int // nil: identity (the full world)
}

// real maps a view coordinate to its world rank.
func (v collView) real(vr int) int {
	if v.live == nil {
		return vr
	}
	return v.live[vr]
}

// vof maps a world rank to its view coordinate, -1 if excluded.
func (v collView) vof(world int) int {
	if v.live == nil {
		return world
	}
	for i, id := range v.live {
		if id == world {
			return i
		}
	}
	return -1
}

// collView computes this rank's collective view. Fault-free worlds (and
// worlds that have not shrunk) take the identity fast path; under an
// active shrink, fated ranks are excluded and get an immediate error
// (their quiesce cascades so survivors never wait on them). Once a
// self-heal recovery has advanced this rank's epoch, the view follows the
// fabric's fault-avoiding route order (heal.go), so a rebuilt ring walks
// healthy links.
func (r *Rank) collView() (collView, error) {
	if err := r.checkHealth(); err != nil {
		return collView{}, err
	}
	w := r.world
	if len(w.doomed) == 0 || !w.shrinkEnabled() {
		if w.healOn && r.healEpoch > 0 && w.routeView != nil {
			// Link-only recovery: every rank survives, but the ring order
			// reroutes around the failed links.
			v := collView{size: w.size, live: w.routeOrdered(w.everyone)}
			v.vrank = v.vof(r.id)
			return v, nil
		}
		return collView{size: w.size, vrank: r.id}, nil
	}
	live := w.live
	if w.healOn && r.healEpoch > 0 {
		live = w.routeOrdered(live)
	}
	v := collView{size: len(live), live: live}
	v.vrank = v.vof(r.id)
	if v.vrank < 0 {
		return collView{}, fmt.Errorf("mpi: rank %d is fated and excluded from the shrunk communicator: %w", r.id, ErrPeerFailed)
	}
	return v, nil
}

// Barrier synchronizes all ranks (dissemination algorithm, O(log P)
// rounds of small host messages).
func (r *Rank) Barrier() error {
	return r.healRun(r.barrier)
}

func (r *Rank) barrier() error {
	v, err := r.collView()
	if err != nil {
		return err
	}
	size := v.size
	if size == 1 {
		return nil
	}
	tag := r.collTag(baseBarrier)
	token := gpusim.NewHostBuffer(1)
	scratch := gpusim.NewHostBuffer(1)
	for k := 1; k < size; k <<= 1 {
		dst := v.real((v.vrank + k) % size)
		src := v.real((v.vrank - k + size) % size)
		if err := r.sendrecv(dst, tag, token, src, tag, scratch); err != nil {
			return fmt.Errorf("mpi: barrier: %w", err)
		}
	}
	return nil
}

// consumeRaw decompresses a relayed raw payload into dst and releases its
// staging buffer — the per-hop consume step shared by the
// compression-aware collectives. The engine fans the real decode work of
// each hop across the codec worker pool (MPC partitions / ZFP chunk rows
// run host-parallel), while the simulated kernel accounting stays on this
// rank's goroutine. Relayed payloads reach many receivers, so the decode
// goes through the world's decode-once memo (core.DecodeMemo): the host
// decodes each distinct payload once and later receivers copy the result,
// while every receiver still pays its simulated decompress kernel.
func (r *Rank) consumeRaw(raw rawResult, dst *gpusim.Buffer) error {
	err := r.Engine.DecompressRelay(r.Clock, raw.hdr, raw.payload, dst)
	// Hand the staging slot back even when the decode fails — an aborting
	// collective must not leak pool credits.
	r.Engine.ReleaseRecv(r.Clock, raw.staged)
	r.dropRawStaged(raw.staged)
	return err
}

// relayPending is a ring relay's received block awaiting its deferred
// decode: the ring consumes step s-1's block while step s transfers.
type relayPending struct {
	raw rawResult
	dst *gpusim.Buffer // nil: nothing pending
}

// consumePending decodes the pending block, if any, and clears it.
func (r *Rank) consumePending(p *relayPending) error {
	if p.dst == nil {
		return nil
	}
	raw, dst := p.raw, p.dst
	*p = relayPending{}
	return r.consumeRaw(raw, dst)
}

// Bcast broadcasts root's buf to every rank using a binomial tree — the
// algorithm osu_bcast exercises for large messages.
//
// The collective is compression-aware: the root compresses the message
// once, interior ranks forward the compressed payload (relaying it before
// decompressing their own copy), and every rank decompresses exactly once.
// This is the collective co-design the paper's framework enables — the
// header carried with each payload makes relayed messages self-describing.
// Relayed payloads at least twice the pipeline chunk size ride the
// chunk-granular reliability path (per-chunk CRC, selective retransmit,
// credit window) hop by hop, exactly like pipelined point-to-point sends.
func (r *Rank) Bcast(root int, buf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.bcast(root, buf) })
}

func (r *Rank) bcast(root int, buf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	v, err := r.collView()
	if err != nil {
		return err
	}
	vroot := v.vof(root)
	if vroot < 0 {
		return r.world.peerError(root)
	}
	size := v.size
	if size == 1 {
		return nil
	}
	vrank := (v.vrank - vroot + size) % size
	tag := r.collTag(baseBcast)

	var payload []byte
	var hdr core.Header
	var raw rawResult

	// Obtain the payload: the root compresses, everyone else receives
	// the raw compressed bytes from the parent.
	mask := 1
	if vrank == 0 {
		payload, hdr = r.Engine.CompressForLinkCached(r.Clock, buf, r.world.cluster.InterNode.BandwidthGBps)
		for mask < size {
			mask <<= 1
		}
	} else {
		for mask < size {
			if vrank&mask != 0 {
				parent := v.real(((vrank - mask) + vroot) % size)
				req, err := r.irecvRaw(parent, tag)
				if err != nil {
					return err
				}
				if err := r.Wait(req); err != nil {
					return fmt.Errorf("mpi: bcast recv: %w", err)
				}
				raw = req.raw
				payload, hdr = raw.payload, raw.hdr
				r.recycle(req)
				break
			}
			mask <<= 1
		}
	}

	// Relay to children first (decreasing mask order), then decompress
	// locally — the decompression kernel runs while the forwards drain.
	var sendsBuf [8]*Request
	sends := sendsBuf[:0]
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < size {
			child := v.real((vrank + mask + vroot) % size)
			req, err := r.isendPayload(child, tag, payload, hdr)
			if err != nil {
				return fmt.Errorf("mpi: bcast send: %w", err)
			}
			sends = append(sends, req)
		}
	}
	if vrank != 0 {
		if err := r.consumeRaw(raw, buf); err != nil {
			return fmt.Errorf("mpi: bcast decompress: %w", err)
		}
	}
	if err := r.Waitall(sends...); err != nil {
		return err
	}
	r.recycle(sends...)
	return nil
}

// Allgather gathers each rank's sendBuf into every rank's recvBuf
// (recvBuf holds world-size * len(sendBuf) bytes, rank i's block at
// offset i*len(sendBuf)) using the ring algorithm MVAPICH2 uses for
// large messages. Under an active shrink the ring runs over the
// surviving subset; block offsets stay world-rank indexed, so fated
// ranks' blocks are simply left untouched.
func (r *Rank) Allgather(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.allgather(sendBuf, recvBuf) })
}

func (r *Rank) allgather(sendBuf, recvBuf *gpusim.Buffer) error {
	v, err := r.collView()
	if err != nil {
		return err
	}
	size := v.size
	blk := sendBuf.Len()
	if recvBuf.Len() != r.Size()*blk {
		return fmt.Errorf("mpi: allgather recv buffer %d bytes, want %d", recvBuf.Len(), r.Size()*blk)
	}
	// Own contribution (device-local copy).
	own := recvBuf.Slice(r.id*blk, blk)
	if sendBuf.Loc == gpusim.Device {
		r.Dev.MemcpyD2D(r.Clock, r.Dev.Stream(0), own.Data, sendBuf.Data)
		r.Dev.StreamSync(r.Clock, r.Dev.Stream(0))
	} else {
		copy(own.Data, sendBuf.Data)
	}
	own.MarkDirty()
	if size == 1 {
		return nil
	}
	right := v.real((v.vrank + 1) % size)
	left := v.real((v.vrank - 1 + size) % size)

	// Compression-aware ring: each rank compresses its own block once;
	// at every step it forwards the compressed payload received in the
	// previous step and decompresses it into place while the transfers
	// of the current step are in flight. The compression source is
	// sendBuf when possible — its bytes equal the just-copied own block,
	// and an unchanged tracked sendBuf hits the compress-once cache on
	// warm iterations, whereas the own block's epoch was just bumped.
	srcBlk := own
	if sendBuf.Loc == gpusim.Device {
		srcBlk = sendBuf
	}
	payload, hdr := r.Engine.CompressForLinkCached(r.Clock, srcBlk, r.world.cluster.InterNode.BandwidthGBps)
	var todo relayPending
	tag := r.collTag(baseAllgather)
	for step := 0; step < size-1; step++ {
		recvIdx := v.real((v.vrank - step - 1 + size) % size)
		rreq, err := r.irecvRaw(left, tag)
		if err != nil {
			return err
		}
		sreq, err := r.isendPayload(right, tag, payload, hdr)
		if err != nil {
			return fmt.Errorf("mpi: allgather step %d: %w", step, err)
		}
		// Decompress the previous step's block while this step's
		// transfers progress.
		if err := r.consumePending(&todo); err != nil {
			return fmt.Errorf("mpi: allgather decompress: %w", err)
		}
		if err := r.Waitall(sreq, rreq); err != nil {
			return fmt.Errorf("mpi: allgather step %d: %w", step, err)
		}
		todo = relayPending{raw: rreq.raw, dst: recvBuf.Slice(recvIdx*blk, blk)}
		payload, hdr = rreq.raw.payload, rreq.raw.hdr
		r.recycle(sreq, rreq)
	}
	if err := r.consumePending(&todo); err != nil {
		return fmt.Errorf("mpi: allgather decompress: %w", err)
	}
	return nil
}

// Gather collects every rank's sendBuf into root's recvBuf (rank i's block
// at offset i*len(sendBuf)). recvBuf is ignored on non-root ranks.
//
// Gather keeps abort semantics under failures (its block layout is
// world-rank indexed, so there is no meaningful shrunk form): with a
// fated rank in the world, every survivor's call surfaces ErrPeerFailed
// within the watchdog deadline rather than hanging. Under a self-heal
// recovery the retry completes on the surviving group instead: fated
// ranks' blocks are skipped and left untouched.
func (r *Rank) Gather(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.gather(root, sendBuf, recvBuf) })
}

func (r *Rank) gather(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	if err := r.checkHealth(); err != nil {
		return err
	}
	w := r.world
	shr := w.healShrunk()
	if shr && w.isDoomed(root) {
		return w.peerError(root)
	}
	tag := r.collTag(baseGather)
	blk := sendBuf.Len()
	if r.id == root {
		if recvBuf.Len() != r.Size()*blk {
			return fmt.Errorf("mpi: gather recv buffer %d bytes, want %d", recvBuf.Len(), r.Size()*blk)
		}
		reqs := make([]*Request, 0, r.Size()-1)
		for src := 0; src < r.Size(); src++ {
			if shr && w.isDoomed(src) {
				continue
			}
			dst := recvBuf.Slice(src*blk, blk)
			if src == root {
				copy(dst.Data, sendBuf.Data)
				dst.MarkDirty()
				continue
			}
			req, err := r.irecv(src, tag, dst)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		return r.Waitall(reqs...)
	}
	return r.send(root, tag, sendBuf)
}

// Scatter distributes root's sendBuf (rank i's block at offset
// i*len(recvBuf)) into every rank's recvBuf. sendBuf is ignored on
// non-root ranks. Like Gather, Scatter keeps abort semantics under
// failures, and like Gather a self-heal retry completes on the surviving
// group, skipping fated destinations.
func (r *Rank) Scatter(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.scatter(root, sendBuf, recvBuf) })
}

func (r *Rank) scatter(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	if err := r.checkHealth(); err != nil {
		return err
	}
	w := r.world
	shr := w.healShrunk()
	if shr && w.isDoomed(root) {
		return w.peerError(root)
	}
	tag := r.collTag(baseScatter)
	blk := recvBuf.Len()
	if r.id == root {
		if sendBuf.Len() != r.Size()*blk {
			return fmt.Errorf("mpi: scatter send buffer %d bytes, want %d", sendBuf.Len(), r.Size()*blk)
		}
		reqs := make([]*Request, 0, r.Size()-1)
		for dst := 0; dst < r.Size(); dst++ {
			if shr && w.isDoomed(dst) {
				continue
			}
			src := sendBuf.Slice(dst*blk, blk)
			if dst == root {
				copy(recvBuf.Data, src.Data)
				recvBuf.MarkDirty()
				continue
			}
			req, err := r.isend(dst, tag, src)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		return r.Waitall(reqs...)
	}
	return r.recv(root, tag, recvBuf)
}

// ReduceSum computes the element-wise float32 sum of every rank's sendBuf
// into root's recvBuf (binomial tree). Buffers must hold float32 data.
func (r *Rank) ReduceSum(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.reduceSum(root, sendBuf, recvBuf) })
}

func (r *Rank) reduceSum(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	v, err := r.collView()
	if err != nil {
		return err
	}
	vroot := v.vof(root)
	if vroot < 0 {
		return r.world.peerError(root)
	}
	size := v.size
	vrank := (v.vrank - vroot + size) % size
	tag := r.collTag(baseReduce)
	// Leaf ranks (odd view rank) forward their contribution unmodified:
	// sending sendBuf itself instead of a scratch copy lets a tracked,
	// unchanged buffer reuse its cached compressed form across calls.
	if size > 1 && vrank&1 == 1 {
		parent := v.real(((vrank &^ 1) + vroot) % size)
		return r.send(parent, tag, sendBuf)
	}
	// Accumulator starts as a copy of the local contribution.
	acc := append([]byte(nil), sendBuf.Data...)
	tmp := &gpusim.Buffer{Data: make([]byte, len(acc)), Loc: sendBuf.Loc, Dev: sendBuf.Dev}
	accBuf := &gpusim.Buffer{Data: acc, Loc: sendBuf.Loc, Dev: sendBuf.Dev}

	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			parent := v.real(((vrank &^ mask) + vroot) % size)
			return r.send(parent, tag, accBuf)
		}
		if vrank+mask < size {
			child := v.real((vrank + mask + vroot) % size)
			if err := r.recv(child, tag, tmp); err != nil {
				return fmt.Errorf("mpi: reduce recv: %w", err)
			}
			sumFloat32(r, accBuf, tmp.Data)
		}
	}
	if r.id == root {
		if recvBuf.Len() != len(acc) {
			return fmt.Errorf("mpi: reduce recv buffer %d bytes, want %d", recvBuf.Len(), len(acc))
		}
		copy(recvBuf.Data, acc)
		recvBuf.MarkDirty()
	}
	return nil
}

// AllreduceSum computes the element-wise float32 sum into every rank's
// recvBuf. The schedule is the world's pinned algorithm
// (Options.Allreduce) when one is set; with AllreduceAuto it routes
// through the wired tuner (Options.Tuner) and, absent one, runs the
// historical reduce+broadcast (reduce to the first rank + broadcast —
// the paper leaves compressed Allreduce as future work; this gives it
// the compressed p2p edges). Under an active shrink the reduce roots at
// the lowest surviving rank. Tuner-dispatched calls also report their
// measured virtual-clock latency back, and feed the first-touch
// compressibility probe when the tuner asks for one.
func (r *Rank) AllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	algo := r.world.allreduce
	var (
		t     CollTuner
		p     TunePoint
		start simtime.Time
	)
	if algo == AllreduceAuto {
		if t = r.world.tuner; t == nil {
			algo = AllreduceReduceBcast
		} else {
			w := r.world
			p = TunePoint{Bytes: sendBuf.Len(), Ranks: w.size, Nodes: w.nodes, PPN: w.ppn, Op: r.nextOp}
			if t.NeedProbe(p) {
				t.ObserveProbeSample(p, probeSample(sendBuf))
			}
			algo = t.PickAllreduce(p)
			start = r.Clock.Now()
		}
	}
	err := r.healRun(func() error { return r.runAllreduce(algo, sendBuf, recvBuf) })
	if err == nil && t != nil {
		t.ObserveAllreduce(p, algo, r.Clock.Now().Sub(start))
	}
	return err
}

func (r *Rank) allreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	root := 0
	if w := r.world; w.shrinkEnabled() && len(w.live) > 0 {
		root = w.live[0]
	}
	if err := r.reduceSum(root, sendBuf, recvBuf); err != nil {
		return err
	}
	return r.bcast(root, recvBuf)
}

// Alltoall exchanges blocks between all pairs: rank i's j-th send block
// lands in rank j's i-th receive block. Pairwise-exchange algorithm.
// Alltoall keeps abort semantics under failures (world-indexed blocks);
// a self-heal retry completes on the surviving group, skipping exchanges
// with fated peers and leaving their blocks untouched.
func (r *Rank) Alltoall(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.alltoall(sendBuf, recvBuf) })
}

func (r *Rank) alltoall(sendBuf, recvBuf *gpusim.Buffer) error {
	if err := r.checkHealth(); err != nil {
		return err
	}
	w := r.world
	shr := w.healShrunk()
	size := r.Size()
	if sendBuf.Len()%size != 0 || recvBuf.Len() != sendBuf.Len() {
		return fmt.Errorf("mpi: alltoall buffers must be equal and divisible by %d ranks", size)
	}
	tag := r.collTag(baseAlltoall)
	blk := sendBuf.Len() / size
	// Local block.
	copy(recvBuf.Slice(r.id*blk, blk).Data, sendBuf.Slice(r.id*blk, blk).Data)
	recvBuf.MarkDirty()
	pow2 := size&(size-1) == 0
	for step := 1; step < size; step++ {
		if pow2 {
			// XOR pairing: both sides of each pair exchange directly.
			peer := r.id ^ step
			if shr && w.isDoomed(peer) {
				continue
			}
			sb := sendBuf.Slice(peer*blk, blk)
			rb := recvBuf.Slice(peer*blk, blk)
			if err := r.sendrecv(peer, tag, sb, peer, tag, rb); err != nil {
				return fmt.Errorf("mpi: alltoall step %d: %w", step, err)
			}
			continue
		}
		// General ring: send to rank+step, receive from rank-step. Post
		// and wait orders match sendrecv's (receive posted first, send
		// waited first) so the skip-free path's timeline is unchanged.
		dst := (r.id + step) % size
		src := (r.id - step + size) % size
		var sreq, rreq *Request
		if !(shr && w.isDoomed(src)) {
			req, err := r.irecv(src, tag, recvBuf.Slice(src*blk, blk))
			if err != nil {
				return fmt.Errorf("mpi: alltoall step %d: %w", step, err)
			}
			rreq = req
		}
		if !(shr && w.isDoomed(dst)) {
			req, err := r.isend(dst, tag, sendBuf.Slice(dst*blk, blk))
			if err != nil {
				return fmt.Errorf("mpi: alltoall step %d: %w", step, err)
			}
			sreq = req
		}
		reqs := make([]*Request, 0, 2)
		for _, req := range []*Request{sreq, rreq} {
			if req != nil {
				reqs = append(reqs, req)
			}
		}
		if err := r.Waitall(reqs...); err != nil {
			return fmt.Errorf("mpi: alltoall step %d: %w", step, err)
		}
	}
	return nil
}

// sendBlocking is a blocking send on the collectives' internal tag
// namespace: it returns only once every fabric booking of the transfer
// has been placed (the wave discipline in Alltoallv depends on that).
func (r *Rank) sendBlocking(dst int, buf *gpusim.Buffer) error {
	req, err := r.isend(dst, r.collTag(baseAlltoallv), buf)
	if err != nil {
		return err
	}
	return r.Wait(req)
}

// checkAlltoallv validates one side's count/displacement vectors against
// its buffer: world-size length, non-negative entries, every segment
// within the buffer.
func checkAlltoallv(side string, buf *gpusim.Buffer, counts, displs []int, size int) error {
	if len(counts) != size || len(displs) != size {
		return fmt.Errorf("mpi: alltoallv %s vectors must have %d entries (got %d counts, %d displacements)",
			side, size, len(counts), len(displs))
	}
	for i := 0; i < size; i++ {
		if counts[i] < 0 || displs[i] < 0 {
			return fmt.Errorf("mpi: alltoallv %s segment %d is negative (count %d, displacement %d)",
				side, i, counts[i], displs[i])
		}
		if displs[i] > buf.Len()-counts[i] {
			return fmt.Errorf("mpi: alltoallv %s segment %d [%d, %d) exceeds %d-byte buffer",
				side, i, displs[i], displs[i]+counts[i], buf.Len())
		}
	}
	return nil
}

// Alltoallv is the vector all-to-all: rank i sends sendCounts[j] bytes
// at sendDispls[j] of sendBuf to each rank j, receiving recvCounts[j]
// bytes at recvDispls[j] of recvBuf from it (counts and displacements
// in bytes). Pairwise-exchange schedule, the same as Alltoall's; every
// per-destination segment rides the compression-enabled point-to-point
// path, so each peer's segment is compressed independently — the
// TEMPI-style compressed Alltoallv. Like the other world-indexed
// collectives, it keeps abort semantics under failures.
//
// Unlike the symmetric collectives, alltoallv's ragged segments make
// adapter contention order-sensitive: two co-located ranks booking
// different-sized transfers on their node's shared egress calendar
// would serialize in host-scheduling order, not a deterministic one
// (equal-sized transfers mask this — any arrival order yields the
// same timeline — which is why Alltoall needs no special care). Each
// exchange step therefore runs in barrier-separated waves, one per
// node-local rank index: within a wave no two in-flight transfers
// share an egress, ingress, or intra-node calendar (pairs span
// distinct nodes; ring-schedule senders with the same local index
// target distinct nodes), and an intra-node pair serializes its two
// directions (lower rank sends first) because both would otherwise
// share the node's one GPU-link calendar. The barrier tokens are
// 1-byte messages whose transfer time truncates to zero, so they
// reserve no calendar time themselves. This models one active port
// per adapter — the cost of determinism is lost overlap between
// co-located senders, which the shared HCA would serialize anyway.
func (r *Rank) Alltoallv(sendBuf *gpusim.Buffer, sendCounts, sendDispls []int, recvBuf *gpusim.Buffer, recvCounts, recvDispls []int) error {
	return r.healRun(func() error {
		return r.alltoallv(sendBuf, sendCounts, sendDispls, recvBuf, recvCounts, recvDispls)
	})
}

func (r *Rank) alltoallv(sendBuf *gpusim.Buffer, sendCounts, sendDispls []int, recvBuf *gpusim.Buffer, recvCounts, recvDispls []int) error {
	if err := r.checkHealth(); err != nil {
		return err
	}
	w := r.world
	shr := w.healShrunk()
	size := r.Size()
	if err := checkAlltoallv("send", sendBuf, sendCounts, sendDispls, size); err != nil {
		return err
	}
	if err := checkAlltoallv("recv", recvBuf, recvCounts, recvDispls, size); err != nil {
		return err
	}
	if sendCounts[r.id] != recvCounts[r.id] {
		return fmt.Errorf("mpi: alltoallv self segment mismatch: sending %d bytes, receiving %d",
			sendCounts[r.id], recvCounts[r.id])
	}
	// Local segment (device-local copy).
	if n := sendCounts[r.id]; n > 0 {
		copy(recvBuf.Slice(recvDispls[r.id], n).Data, sendBuf.Slice(sendDispls[r.id], n).Data)
		recvBuf.MarkDirty()
	}
	if size == 1 {
		return nil
	}
	pow2 := size&(size-1) == 0
	ppn := r.world.ppn
	tag := r.collTag(baseAlltoallv)
	for step := 1; step < size; step++ {
		var dst, src int
		if pow2 {
			// XOR pairing: both sides of each pair exchange directly.
			dst = r.id ^ step
			src = dst
		} else {
			// General ring: send to rank+step, receive from rank-step.
			dst = (r.id + step) % size
			src = (r.id - step + size) % size
		}
		// On a self-heal retry, exchanges with fated peers are skipped and
		// their segments left untouched — but every live rank still runs
		// each step's full barrier-wave schedule, so the wave discipline
		// stays globally aligned.
		sendOK := !(shr && w.isDoomed(dst))
		recvOK := !(shr && w.isDoomed(src))
		sb := sendBuf.Slice(sendDispls[dst], sendCounts[dst])
		var rreq *Request
		if recvOK {
			rb := recvBuf.Slice(recvDispls[src], recvCounts[src])
			// Post the receive before any wave: a sender whose wave comes
			// earlier than ours must find it matched.
			req, err := r.irecv(src, tag, rb)
			if err != nil {
				return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
			}
			rreq = req
		}
		// Our active wave: XOR pairs act in the pair's wave (both sides
		// agree on the lower rank's local index); ring senders act in
		// their own local index's wave.
		wave := r.id % ppn
		if pow2 && dst < r.id {
			wave = dst % ppn
		}
		recvDone := false
		for wv := 0; wv < ppn; wv++ {
			if err := r.Barrier(); err != nil {
				return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
			}
			if wv != wave || !sendOK {
				continue
			}
			if pow2 && r.world.nodeOf(dst) == r.Node() {
				// Intra-node pair: both directions would share the
				// node's GPU-link calendar, so they go one at a time.
				if r.id < dst {
					if err := r.sendBlocking(dst, sb); err != nil {
						return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
					}
					if err := r.Wait(rreq); err != nil {
						return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
					}
				} else {
					if err := r.Wait(rreq); err != nil {
						return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
					}
					if err := r.sendBlocking(dst, sb); err != nil {
						return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
					}
				}
				recvDone = true
				continue
			}
			sreq, err := r.isend(dst, tag, sb)
			if err != nil {
				return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
			}
			if pow2 {
				// The peer acts in this same wave; wait the whole
				// exchange here so every booking lands inside it.
				if err := r.Waitall(sreq, rreq); err != nil {
					return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
				}
				recvDone = true
			} else if err := r.Wait(sreq); err != nil {
				// Ring: our source may act in a later wave — waiting
				// for the receive here would stall its barrier. Only
				// the send must complete inside the wave.
				return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
			}
		}
		if !recvDone && rreq != nil {
			if err := r.Wait(rreq); err != nil {
				return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
			}
		}
	}
	return nil
}

// sumFloat32 adds src into dst element-wise (float32), charging the GPU a
// memory-bound vector-add kernel (reads two floats, writes one per
// element). dst's content epoch is bumped, invalidating cached
// compressed forms.
func sumFloat32(r *Rank, dst *gpusim.Buffer, src []byte) {
	n := dst.Len() / 4
	r.Dev.LaunchKernel(r.Clock, r.Dev.Stream(0), gpusim.KernelSpec{
		Blocks:         r.Dev.Spec.SMs,
		Bytes:          12 * n,
		ThroughputGbps: r.Dev.Spec.MemBWGBps * 8, // GB/s -> Gb/s
	})
	r.Dev.StreamSync(r.Clock, r.Dev.Stream(0))
	for i := 0; i < n; i++ {
		a := math.Float32frombits(binary.LittleEndian.Uint32(dst.Data[4*i:]))
		b := math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		binary.LittleEndian.PutUint32(dst.Data[4*i:], math.Float32bits(a+b))
	}
	dst.MarkDirty()
}

// BcastScatterAllgather is the bandwidth-optimal large-message broadcast
// MVAPICH2 switches to above its binomial-tree threshold: the message is
// scattered into per-rank blocks from the root, then ring-allgathered.
// Each stage rides the compression-enabled point-to-point path. Messages
// whose size is not divisible into aligned blocks fall back to the
// binomial tree.
func (r *Rank) BcastScatterAllgather(root int, buf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.bcastScatterAllgather(root, buf) })
}

func (r *Rank) bcastScatterAllgather(root int, buf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	// Scatter's block layout has no shrunk form; once the world has
	// shrunk around failures, fall back to the (view-aware) binomial tree.
	if w := r.world; w.shrinkEnabled() && len(w.doomed) > 0 {
		return r.bcast(root, buf)
	}
	size := r.Size()
	if size == 1 {
		return nil
	}
	if buf.Len()%(4*size) != 0 {
		return r.bcast(root, buf)
	}
	blk := buf.Len() / size
	mine := buf.Slice(r.id*blk, blk)
	var src *gpusim.Buffer
	if r.id == root {
		src = buf
	} else {
		src = buf.Slice(0, 0)
	}
	if err := r.scatter(root, src, mine); err != nil {
		return fmt.Errorf("mpi: bcast-sag scatter: %w", err)
	}
	if err := r.allgather(mine, buf); err != nil {
		return fmt.Errorf("mpi: bcast-sag allgather: %w", err)
	}
	return nil
}

// BcastHierarchical is MVAPICH2's two-level broadcast: the message first
// moves between node leaders over the network (binomial tree among the
// first rank of each node), then fans out inside each node over the fast
// intra-node link. With compression enabled, the inter-node stage moves
// compressed payloads while the NVLink/PCIe stage can stay uncompressed
// (pair it with Config.Dynamic for exactly that split).
//
// Under a shrunken or rerouted view the topology self-heals instead of
// degrading to the flat tree: each node re-elects its lowest surviving
// rank as leader, nodes with no survivor drop out of the inter-node
// tree, and the leader order follows the view (route order after a link
// recovery). On the identity view this reproduces the historical
// leader = first-rank-per-node schedule exactly.
func (r *Rank) BcastHierarchical(root int, buf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.bcastHierarchical(root, buf) })
}

func (r *Rank) bcastHierarchical(root int, buf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	w := r.world
	v, err := r.collView()
	if err != nil {
		return err
	}
	if v.vof(root) < 0 {
		return w.peerError(root)
	}
	ppn := w.ppn
	if ppn == 1 || w.nodes == 1 || v.size == 1 {
		return r.bcast(root, buf)
	}
	tag := r.collTag(baseBcast)

	// Leader (re-)election over the view: the first surviving rank of a
	// node in view order leads it (view order within a node is ascending
	// rank order, so this is the lowest live rank); leaderless nodes drop
	// out. liveNodes fixes the inter-node tree's node order.
	nodeIdx, leaderOf, liveNodes := w.electLeaders(v)
	rootNode := w.nodeOf(root)
	myNode := r.Node()
	leader := leaderOf[myNode]
	onRootNode := myNode == rootNode

	// Stage 0: move the message to the root node's leader if needed.
	if onRootNode && root != leader {
		if r.id == root {
			if err := r.send(leader, tag, buf); err != nil {
				return err
			}
		} else if r.id == leader {
			if err := r.recv(root, tag, buf); err != nil {
				return err
			}
		}
	}

	// Stage 1: binomial tree among the surviving node leaders.
	if r.id == leader {
		nodes := len(liveNodes)
		rootIdx := nodeIdx[rootNode]
		vnode := (nodeIdx[myNode] - rootIdx + nodes) % nodes
		mask := 1
		for mask < nodes {
			if vnode&mask != 0 {
				parentNode := liveNodes[((vnode-mask)+rootIdx)%nodes]
				if err := r.recv(leaderOf[parentNode], tag, buf); err != nil {
					return err
				}
				break
			}
			mask <<= 1
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if vnode+mask < nodes {
				childNode := liveNodes[(vnode+mask+rootIdx)%nodes]
				if err := r.send(leaderOf[childNode], tag, buf); err != nil {
					return err
				}
			}
		}
	}

	// Stage 2: node-local fan-out from the leader to the node's surviving
	// ranks (view order within a node is ascending rank order).
	if r.id == leader {
		for vr := 0; vr < v.size; vr++ {
			peer := v.real(vr)
			if w.nodeOf(peer) != myNode || peer == leader || (onRootNode && peer == root) {
				continue
			}
			if err := r.send(peer, tag, buf); err != nil {
				return err
			}
		}
		return nil
	}
	if onRootNode && r.id == root {
		return nil
	}
	return r.recv(leader, tag, buf)
}

// ringBlocks partitions n bytes of float32 data into size contiguous
// 4-byte-aligned blocks, as even as possible: block i covers bytes
// [offs[i], offs[i+1]), with the first n/4 mod size blocks one word
// larger. All ranks compute the identical partition, so senders and
// receivers agree on every block's extent without negotiation.
func ringBlocks(n, size int) []int {
	words := n / 4
	base, rem := words/size, words%size
	offs := make([]int, size+1)
	for i := 0; i < size; i++ {
		w := base
		if i < rem {
			w++
		}
		offs[i+1] = offs[i] + 4*w
	}
	return offs
}

// ringChunk normalizes the pipeline chunk granularity for a ring step:
// word-aligned, and 0 (single chunk) when pipelining is off or the
// configured chunk cannot hold a word.
func ringChunk(chunkBytes int) int {
	chunkBytes &^= 3
	if chunkBytes < 4 {
		return 0
	}
	return chunkBytes
}

// ringChunkSpans splits a block of n bytes into pipeline chunk spans
// ([offset, length] pairs); one span when chunking is off.
func ringChunkSpans(n, chunk int) [][2]int {
	if chunk <= 0 || n <= chunk {
		return [][2]int{{0, n}}
	}
	var spans [][2]int
	for off := 0; off < n; off += chunk {
		c := chunk
		if off+c > n {
			c = n - off
		}
		spans = append(spans, [2]int{off, c})
	}
	return spans
}

// ringReduceStep runs one pipelined reduce-scatter step: the send block
// streams to the right neighbor chunk by chunk while the block arriving
// from the left is reduced into place chunk by chunk — chunk k's
// sumFloat32 overlaps chunk k+1's transfer and decompression, the
// overlap the whole-block sendrecv serializes away. Sender and receiver
// derive identical chunk boundaries from the world-uniform engine
// config, so the per-chunk messages pair up by FIFO matching. src is
// the buffer the send block is compressed from — recvBuf, except at
// step 0 where the caller may pass the untouched sendBuf (identical
// bytes, stable epoch) so warm iterations hit the compress-once cache.
func (r *Rank) ringReduceStep(right, left int, src, recvBuf *gpusim.Buffer, sOff, sN, dOff, dN int, scratch *gpusim.Buffer, chunk int) error {
	tag := r.collTag(baseAllreduce)
	rspans := ringChunkSpans(dN, chunk)
	sspans := ringChunkSpans(sN, chunk)
	rreqs := make([]*Request, len(rspans))
	for c, sp := range rspans {
		req, err := r.irecv(left, tag, scratch.Slice(sp[0], sp[1]))
		if err != nil {
			return err
		}
		rreqs[c] = req
	}
	sreqs := make([]*Request, len(sspans))
	for c, sp := range sspans {
		req, err := r.isend(right, tag, src.Slice(sOff+sp[0], sp[1]))
		if err != nil {
			return err
		}
		sreqs[c] = req
	}
	for c, sp := range rspans {
		if err := r.Wait(rreqs[c]); err != nil {
			return err
		}
		sumFloat32(r, recvBuf.Slice(dOff+sp[0], sp[1]), scratch.Data[sp[0]:sp[0]+sp[1]])
	}
	if len(rspans) > 1 {
		r.Engine.NotePipelinedChunks(len(rspans))
	}
	return r.Waitall(sreqs...)
}

// RingAllreduceSum is the bandwidth-optimal allreduce (ring
// reduce-scatter followed by ring allgather), the algorithm large-message
// reductions use in practice. Buffers must hold float32 data; only
// genuinely tiny messages (fewer words than ranks) or non-word-aligned
// sizes fall back to reduce+broadcast — uneven sizes get a ragged
// word-aligned partition (ringBlocks).
//
// Both phases are fast paths. The reduce-scatter streams each block in
// Config.PipelineChunkBytes-sized chunks, overlapping reduction with
// transfer (ringReduceStep). The allgather relays each fully reduced
// block's compressed payload verbatim around the ring — one compression
// at the block's origin, one decompression per rank, no per-hop
// recompression — exactly like Bcast's relay path. Reduction results
// are bit-identical to RingAllreduceSumBlocking for lossless configs:
// the per-element float additions happen in the same order.
//
// Both phases inherit the transport's chunk-granular reliability: every
// point-to-point step above twice the chunk size moves as independently
// CRC-protected, selectively retransmitted, credit-windowed chunks, so a
// lossy link slows one step instead of failing the collective.
func (r *Rank) RingAllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.ringAllreduceSum(sendBuf, recvBuf) })
}

func (r *Rank) ringAllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	v, err := r.collView()
	if err != nil {
		return err
	}
	size := v.size
	if recvBuf.Len() != sendBuf.Len() {
		return fmt.Errorf("mpi: ring allreduce buffers differ: %d vs %d", sendBuf.Len(), recvBuf.Len())
	}
	if size == 1 {
		copy(recvBuf.Data, sendBuf.Data)
		recvBuf.MarkDirty()
		return nil
	}
	if sendBuf.Len()%4 != 0 || sendBuf.Len()/4 < size {
		return r.allreduceSum(sendBuf, recvBuf)
	}
	offs := ringBlocks(sendBuf.Len(), size)
	copy(recvBuf.Data, sendBuf.Data)
	recvBuf.MarkDirty()
	right := v.real((v.vrank + 1) % size)
	left := v.real((v.vrank - 1 + size) % size)
	maxBlk := 0
	for i := 0; i < size; i++ {
		if n := offs[i+1] - offs[i]; n > maxBlk {
			maxBlk = n
		}
	}
	scratch := &gpusim.Buffer{Data: make([]byte, maxBlk), Loc: recvBuf.Loc, Dev: recvBuf.Dev}
	chunk := ringChunk(r.Engine.Config().PipelineChunkBytes)

	// Phase 1: pipelined reduce-scatter. After step s, the block each
	// rank just received accumulates one more contribution; after P-1
	// steps view rank i holds the fully reduced block (i+1) mod P.
	// Block indices are view coordinates — all participants agree on
	// the partition.
	for step := 0; step < size-1; step++ {
		sendIdx := (v.vrank - step + size) % size
		recvIdx := (v.vrank - step - 1 + size) % size
		// Step 0 sends the rank's own block, which no reduction has
		// touched yet — its bytes in recvBuf still equal sendBuf's, so
		// compress from sendBuf: a persistent send buffer keeps a stable
		// epoch across iterations and step 0's compression becomes a
		// cache hit on every warm iteration.
		src := recvBuf
		if step == 0 && sendBuf.Loc == gpusim.Device {
			src = sendBuf
		}
		if err := r.ringReduceStep(right, left, src, recvBuf,
			offs[sendIdx], offs[sendIdx+1]-offs[sendIdx],
			offs[recvIdx], offs[recvIdx+1]-offs[recvIdx],
			scratch, chunk); err != nil {
			return fmt.Errorf("mpi: ring reduce-scatter step %d: %w", step, err)
		}
	}

	// Phase 2: relay allgather. Each rank compresses its fully reduced
	// block once and every subsequent hop forwards the received wire
	// payload verbatim, decompressing the previous step's block while
	// the current step's transfers are in flight (the Allgather/Bcast
	// relay pattern).
	ownIdx := (v.vrank + 1) % size
	own := recvBuf.Slice(offs[ownIdx], offs[ownIdx+1]-offs[ownIdx])
	payload, hdr := r.Engine.CompressForLinkCached(r.Clock, own, r.world.cluster.InterNode.BandwidthGBps)
	var todo relayPending
	tag := r.collTag(baseAllreduce)
	for step := 0; step < size-1; step++ {
		recvIdx := (v.vrank - step + size) % size
		rreq, err := r.irecvRaw(left, tag)
		if err != nil {
			return err
		}
		sreq, err := r.isendPayload(right, tag, payload, hdr)
		if err != nil {
			return fmt.Errorf("mpi: ring allgather step %d: %w", step, err)
		}
		if err := r.consumePending(&todo); err != nil {
			return fmt.Errorf("mpi: ring allgather decompress: %w", err)
		}
		if err := r.Waitall(sreq, rreq); err != nil {
			return fmt.Errorf("mpi: ring allgather step %d: %w", step, err)
		}
		todo = relayPending{raw: rreq.raw, dst: recvBuf.Slice(offs[recvIdx], offs[recvIdx+1]-offs[recvIdx])}
		payload, hdr = rreq.raw.payload, rreq.raw.hdr
		r.recycle(sreq, rreq)
	}
	if err := r.consumePending(&todo); err != nil {
		return fmt.Errorf("mpi: ring allgather decompress: %w", err)
	}
	return nil
}

// RingAllreduceSumBlocking is the pre-fast-path ring allreduce: whole
// blocks move through blocking sendrecv exchanges, every hop of the
// allgather phase paying a fresh compress + decompress. It uses the
// same ragged partition and the same reduction order as
// RingAllreduceSum, so lossless configs produce bit-identical results —
// it exists as the measured baseline for the pipelined/relay fast path
// and as its differential-testing oracle.
func (r *Rank) RingAllreduceSumBlocking(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.ringAllreduceSumBlocking(sendBuf, recvBuf) })
}

func (r *Rank) ringAllreduceSumBlocking(sendBuf, recvBuf *gpusim.Buffer) error {
	v, err := r.collView()
	if err != nil {
		return err
	}
	size := v.size
	if recvBuf.Len() != sendBuf.Len() {
		return fmt.Errorf("mpi: ring allreduce buffers differ: %d vs %d", sendBuf.Len(), recvBuf.Len())
	}
	if size == 1 {
		copy(recvBuf.Data, sendBuf.Data)
		recvBuf.MarkDirty()
		return nil
	}
	if sendBuf.Len()%4 != 0 || sendBuf.Len()/4 < size {
		return r.allreduceSum(sendBuf, recvBuf)
	}
	offs := ringBlocks(sendBuf.Len(), size)
	copy(recvBuf.Data, sendBuf.Data)
	recvBuf.MarkDirty()
	right := v.real((v.vrank + 1) % size)
	left := v.real((v.vrank - 1 + size) % size)
	maxBlk := 0
	for i := 0; i < size; i++ {
		if n := offs[i+1] - offs[i]; n > maxBlk {
			maxBlk = n
		}
	}
	scratch := &gpusim.Buffer{Data: make([]byte, maxBlk), Loc: recvBuf.Loc, Dev: recvBuf.Dev}
	tag := r.collTag(baseAllreduce)

	// Phase 1: reduce-scatter with whole-block blocking exchanges.
	for step := 0; step < size-1; step++ {
		sendIdx := (v.vrank - step + size) % size
		recvIdx := (v.vrank - step - 1 + size) % size
		sb := recvBuf.Slice(offs[sendIdx], offs[sendIdx+1]-offs[sendIdx])
		dN := offs[recvIdx+1] - offs[recvIdx]
		sc := scratch.Slice(0, dN)
		if err := r.sendrecv(right, tag, sb, left, tag, sc); err != nil {
			return fmt.Errorf("mpi: ring reduce-scatter step %d: %w", step, err)
		}
		sumFloat32(r, recvBuf.Slice(offs[recvIdx], dN), sc.Data)
	}
	// Phase 2: allgather the reduced blocks around the ring,
	// recompressing at every hop.
	for step := 0; step < size-1; step++ {
		sendIdx := (v.vrank + 1 - step + size) % size
		recvIdx := (v.vrank - step + size) % size
		sb := recvBuf.Slice(offs[sendIdx], offs[sendIdx+1]-offs[sendIdx])
		rb := recvBuf.Slice(offs[recvIdx], offs[recvIdx+1]-offs[recvIdx])
		if err := r.sendrecv(right, tag, sb, left, tag, rb); err != nil {
			return fmt.Errorf("mpi: ring allgather step %d: %w", step, err)
		}
	}
	return nil
}
