package serve

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/msg"
	"repro/internal/prof"
	"repro/internal/sim"
)

// Frame layout, multiplexed over one channel per ordered node pair.
// The receiver knows the sending node from the channel, so the header
// only carries what routing cannot: opcode, request id and key.
//
//	byte  0      opcode (read | write | resp | replicate)
//	byte  1      status (responses; 0 = ok)
//	bytes 8..15  request id (unique per client node)
//	bytes 16..23 key
//	bytes 24..   value payload (writes, read responses, replication)
const (
	hdrBytes    = 24
	frRead      = 1
	frWrite     = 2
	frResp      = 3
	frReplicate = 4
)

// Event dispatch: the opcode lives in the top byte of EventArg.I, the
// request id (when the event names one) in the low 56 bits.
const (
	evArrival = 1
	evTimeout = 2
	evLocal   = 3
	evService = 4
	opShift   = 56
	idMask    = (1 << opShift) - 1
)

// Counter indices. Counters are single-writer atomics — written only
// by the owning node's engine, loadable any time by the monitor's HTTP
// goroutine — following the hist.Hist single-writer contract.
const (
	cArrivals = iota
	cAdmitted
	cShed
	cCompleted
	cInSLO
	cTimeouts
	cLate
	cUnroutable
	cFailovers
	cDeadMarks
	cReads
	cWrites
	cLocal
	cServed
	cReplicas
	cBad
	numCtr
)

// maxWindows bounds the goodput time series; completions beyond it fold
// into the last cell rather than growing without bound.
const maxWindows = 8192

// pendingReq is one in-flight request on its client node.
type pendingReq struct {
	start  sim.Time
	key    uint64
	target int32
	read   bool
}

// srvReq is one request being serviced on its server node, pooled per
// node so a million-request run does not churn the heap.
type srvReq struct {
	at   sim.Time
	key  uint64
	id   uint64
	from int32
	read bool
}

// windowCell is one goodput accounting window on one node.
type windowCell struct {
	offered   uint64
	admitted  uint64
	completed uint64
	inSLO     uint64
	timeouts  uint64
}

// nodeState is one node's full serving state: its server role (owned
// shard folds, service pipeline) and its client role (arrival process,
// admission bucket, routing view, pending table). Every field is
// touched only by this node's engine events, which is what keeps
// serial and parallel runs bit-identical.
type nodeState struct {
	svc *Service
	id  int
	eng *sim.Engine
	np  *prof.NodeProf

	send []*msg.Sender
	recv []*msg.Receiver

	// Server role.
	srvCount uint64
	srvFold  uint64
	reqPool  []*srvReq
	bufPool  [][]byte

	// Client role.
	rng          *sim.Rand
	tokens       float64
	lastFill     sim.Time
	nextID       uint64
	arrivalsLeft int
	halted       bool
	pending      map[uint64]pendingReq
	outstanding  []int
	dead         []bool
	strikes      []int
	rrCtr        uint64
	aliveBuf     []int

	ctr     [numCtr]atomic.Uint64
	lat     hist.Hist
	windows []windowCell
}

func newNodeState(svc *Service, cl *core.Cluster, id, n int) *nodeState {
	return &nodeState{
		svc:          svc,
		id:           id,
		eng:          cl.EngineFor(id),
		np:           cl.Profiler().Node(id),
		send:         make([]*msg.Sender, n),
		recv:         make([]*msg.Receiver, n),
		rng:          sim.NewRand(svc.cfg.Seed ^ mix64(uint64(id)+0x5eed)),
		arrivalsLeft: svc.cfg.RequestsPerNode,
		pending:      make(map[uint64]pendingReq),
		outstanding:  make([]int, n),
		dead:         make([]bool, n),
		strikes:      make([]int, n),
		aliveBuf:     make([]int, 0, svc.cfg.ReplicaN),
	}
}

// bump increments a counter under the single-writer contract.
func (ns *nodeState) bump(c int) {
	v := &ns.ctr[c]
	v.Store(v.Load() + 1)
}

// win returns the accounting window covering virtual time t.
func (ns *nodeState) win(t sim.Time) *windowCell {
	idx := int(t / ns.svc.cfg.Window)
	if idx >= maxWindows {
		idx = maxWindows - 1
	}
	for len(ns.windows) <= idx {
		ns.windows = append(ns.windows, windowCell{})
	}
	return &ns.windows[idx]
}

// ---- server role ----

func (ns *nodeState) startServer() {
	for from, r := range ns.recv {
		if r != nil {
			ns.recvLoop(from, r)
		}
	}
}

func (ns *nodeState) recvLoop(from int, r *msg.Receiver) {
	var again func()
	again = func() {
		r.Recv(func(d []byte, err error) {
			if err != nil {
				return // receiver stopped
			}
			ns.onFrame(from, d)
			again()
		})
	}
	again()
}

// onFrame demultiplexes one delivered frame: requests enter the service
// pipeline, responses complete pending client requests, replication
// applies directly.
func (ns *nodeState) onFrame(from int, d []byte) {
	if len(d) < hdrBytes {
		ns.bump(cBad)
		return
	}
	op := d[0]
	id := binary.LittleEndian.Uint64(d[8:16])
	key := binary.LittleEndian.Uint64(d[16:24])
	switch op {
	case frRead, frWrite:
		req := ns.getReq()
		req.at = ns.eng.Now()
		req.key = key
		req.id = id
		req.from = int32(from)
		req.read = op == frRead
		ns.eng.ScheduleAfter(ns.svc.cfg.ServiceTime, ns, sim.EventArg{Ptr: req, I: evService << opShift})
	case frResp:
		ns.onResponse(from, d, id, key)
	case frReplicate:
		ns.applyWrite(key)
		ns.bump(cReplicas)
	default:
		ns.bump(cBad)
	}
}

// onService finishes one request's simulated work: apply (writes fold
// into the shard state and fan out to the other replicas), then post
// the response frame back. The serve.request profiler phase observes
// arrival-to-response-posted, so egress ring stalls show up in the
// budget.
func (ns *nodeState) onService(req *srvReq) {
	if req.read {
		resp := ns.getBuf(hdrBytes + ns.svc.cfg.ValueBytes)
		putHeader(resp, frResp, req.id, req.key)
		valueInto(resp[hdrBytes:], req.key)
		ns.respond(int(req.from), resp, req)
	} else {
		ns.applyWrite(req.key)
		ns.replicate(req.key)
		resp := ns.getBuf(hdrBytes)
		putHeader(resp, frResp, req.id, req.key)
		ns.respond(int(req.from), resp, req)
	}
}

func (ns *nodeState) respond(to int, resp []byte, req *srvReq) {
	ns.send[to].Send(resp, func(error) {
		ns.np.Observe(prof.NodeServe, ns.eng.Now()-req.at)
		ns.bump(cServed)
		ns.putBuf(resp)
		ns.putReq(req)
	})
}

// applyWrite folds one write into this node's shard state. The fold is
// addition of a key hash, so it is insensitive to arrival interleaving
// between peers but sensitive to every lost or duplicated apply — the
// cluster checksum the determinism gates compare.
func (ns *nodeState) applyWrite(key uint64) {
	ns.srvFold += mix64(key)
	ns.srvCount++
}

// replicate fans a just-applied write out to the shard's other
// replicas, fire-and-forget: on the write-only fabric replication is
// one more posted-store stream, and a crashed replica's copy simply
// master-aborts at its dead link.
func (ns *nodeState) replicate(key uint64) {
	for _, rep := range ns.svc.ring.replicas[ns.svc.ring.shardOf(key)] {
		if rep == ns.id {
			continue
		}
		b := ns.getBuf(hdrBytes + ns.svc.cfg.ValueBytes)
		putHeader(b, frReplicate, 0, key)
		valueInto(b[hdrBytes:], key)
		ns.send[rep].Send(b, func(error) { ns.putBuf(b) })
	}
}

// ---- client role ----

func (ns *nodeState) startClient() {
	ns.tokens = float64(ns.svc.cfg.BucketBurst)
	ns.lastFill = ns.eng.Now()
	if ns.arrivalsLeft > 0 {
		ns.scheduleArrival()
	}
}

func (ns *nodeState) scheduleArrival() {
	ns.eng.ScheduleAfter(ns.interarrival(), ns, sim.EventArg{I: evArrival << opShift})
}

// interarrival draws one exponential gap (clamped to 20x the mean so a
// tail draw cannot stall the generator).
func (ns *nodeState) interarrival() sim.Time {
	mean := float64(ns.svc.cfg.MeanInterarrival)
	d := -math.Log(1-ns.rng.Float64()) * mean
	if d < 1 {
		d = 1
	}
	if max := 20 * mean; d > max {
		d = max
	}
	return sim.Time(d)
}

// admit is the token-bucket admission controller: refill by elapsed
// virtual time, spend one token per accepted request.
func (ns *nodeState) admit(now sim.Time) bool {
	rate := ns.svc.cfg.BucketRate
	if rate < 0 {
		return true
	}
	ns.tokens += (now - ns.lastFill).Seconds() * rate
	ns.lastFill = now
	if burst := float64(ns.svc.cfg.BucketBurst); ns.tokens > burst {
		ns.tokens = burst
	}
	if ns.tokens < 1 {
		return false
	}
	ns.tokens--
	return true
}

func (ns *nodeState) onArrival() {
	now := ns.eng.Now()
	ns.bump(cArrivals)
	ns.win(now).offered++
	if ns.admit(now) {
		ns.bump(cAdmitted)
		ns.win(now).admitted++
		ns.launch(now)
	} else {
		ns.bump(cShed)
	}
	ns.arrivalsLeft--
	if ns.arrivalsLeft > 0 && !ns.halted {
		ns.scheduleArrival()
	}
}

// launch draws a key and operation, routes it, and either takes the
// node-local fast path or frames it onto the fabric with a timeout
// armed.
func (ns *nodeState) launch(now sim.Time) {
	cfg := &ns.svc.cfg
	key := ns.rng.Uint64() % cfg.Keyspace
	read := ns.rng.Float64() < cfg.ReadFraction
	if read {
		ns.bump(cReads)
	} else {
		ns.bump(cWrites)
	}
	reps := ns.svc.ring.replicas[ns.svc.ring.shardOf(key)]
	target := ns.route(reps, read)
	if target < 0 {
		ns.bump(cUnroutable)
		return
	}
	if ns.dead[reps[0]] {
		ns.bump(cFailovers)
	}
	ns.nextID++
	id := ns.nextID
	ns.pending[id] = pendingReq{start: now, key: key, target: int32(target), read: read}

	if target == ns.id {
		// Local fast path: the key's shard lives on this node, so the
		// "RPC" is a local memory access — no frames, no fabric.
		ns.bump(cLocal)
		ns.eng.ScheduleAfter(cfg.LocalDelay+cfg.ServiceTime, ns,
			sim.EventArg{I: evLocal<<opShift | int64(id&idMask)})
		return
	}
	op := byte(frRead)
	size := hdrBytes
	if !read {
		op = frWrite
		size += cfg.ValueBytes
	}
	b := ns.getBuf(size)
	putHeader(b, op, id, key)
	if !read {
		valueInto(b[hdrBytes:], key)
	}
	ns.outstanding[target]++
	ns.send[target].Send(b, func(error) { ns.putBuf(b) })
	ns.eng.ScheduleAfter(cfg.Timeout, ns, sim.EventArg{I: evTimeout<<opShift | int64(id&idMask)})
}

// route picks the target replica under the configured policy, filtered
// through this client's local alive view. -1 means no replica of the
// shard is believed alive.
func (ns *nodeState) route(reps []int, read bool) int {
	alive := ns.aliveBuf[:0]
	for _, r := range reps {
		if !ns.dead[r] {
			alive = append(alive, r)
		}
	}
	ns.aliveBuf = alive[:0]
	if len(alive) == 0 {
		return -1
	}
	if !read {
		// Writes always hit the first alive replica in placement order
		// so every client folds the same ordering assumptions.
		return alive[0]
	}
	switch ns.svc.cfg.Policy {
	case PolicyLeastLoaded:
		best := alive[0]
		for _, r := range alive[1:] {
			if ns.outstanding[r] < ns.outstanding[best] {
				best = r
			}
		}
		return best
	case PolicyAffinity:
		return alive[0]
	default: // PolicyRoundRobin
		ns.rrCtr++
		return alive[int(ns.rrCtr%uint64(len(alive)))]
	}
}

// onResponse completes one pending request. A response landing after
// its timeout already fired is counted late and dropped — the slot was
// already charged as a timeout.
func (ns *nodeState) onResponse(from int, d []byte, id, key uint64) {
	p, ok := ns.pending[id]
	if !ok {
		ns.bump(cLate)
		return
	}
	delete(ns.pending, id)
	ns.outstanding[from]--
	ns.strikes[from] = 0
	if p.read {
		if len(d) != hdrBytes+ns.svc.cfg.ValueBytes ||
			binary.LittleEndian.Uint64(d[hdrBytes:hdrBytes+8]) != valueStamp(key) {
			ns.bump(cBad)
		}
	}
	ns.complete(p)
}

// onLocal completes one local fast-path request, applying the write
// (and its replication fan-out) at completion time.
func (ns *nodeState) onLocal(id uint64) {
	p, ok := ns.pending[id]
	if !ok {
		return
	}
	delete(ns.pending, id)
	if !p.read {
		ns.applyWrite(p.key)
		ns.replicate(p.key)
	}
	ns.complete(p)
}

func (ns *nodeState) complete(p pendingReq) {
	now := ns.eng.Now()
	lat := now - p.start
	ns.lat.Observe(uint64(lat))
	ns.bump(cCompleted)
	w := ns.win(now)
	w.completed++
	if lat <= ns.svc.cfg.SLO {
		ns.bump(cInSLO)
		w.inSLO++
	}
}

// onTimeout charges one lost request against its server: after
// DeadAfter consecutive strikes the client marks the server dead and
// fails over. A client whose every remote server has died concludes its
// own node is cut off and halts its arrival process.
func (ns *nodeState) onTimeout(id uint64) {
	p, ok := ns.pending[id]
	if !ok {
		return // response beat the timer
	}
	delete(ns.pending, id)
	now := ns.eng.Now()
	ns.bump(cTimeouts)
	ns.win(now).timeouts++
	t := int(p.target)
	ns.outstanding[t]--
	ns.strikes[t]++
	if ns.strikes[t] >= ns.svc.cfg.DeadAfter && !ns.dead[t] {
		ns.dead[t] = true
		ns.bump(cDeadMarks)
		deadRemotes := 0
		for i, d := range ns.dead {
			if d && i != ns.id {
				deadRemotes++
			}
		}
		if deadRemotes == len(ns.dead)-1 {
			ns.halted = true
		}
	}
}

// OnEvent dispatches this node's timed events.
func (ns *nodeState) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	switch arg.I >> opShift {
	case evArrival:
		ns.onArrival()
	case evTimeout:
		ns.onTimeout(uint64(arg.I & idMask))
	case evLocal:
		ns.onLocal(uint64(arg.I & idMask))
	case evService:
		ns.onService(arg.Ptr.(*srvReq))
	}
}

// ---- framing and pooling ----

func putHeader(b []byte, op byte, id, key uint64) {
	for i := 0; i < hdrBytes; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], 0)
	}
	b[0] = op
	binary.LittleEndian.PutUint64(b[8:16], id)
	binary.LittleEndian.PutUint64(b[16:24], key)
}

// valueStamp is the first word of the deterministic value synthesized
// for a key — what read validation checks end to end.
func valueStamp(key uint64) uint64 { return mix64(key ^ 0xFACE) }

// valueInto fills a value payload deterministically from its key.
func valueInto(b []byte, key uint64) {
	binary.LittleEndian.PutUint64(b[:8], valueStamp(key))
	for i := 8; i < len(b); i++ {
		b[i] = byte(key) + byte(i)
	}
}

func (ns *nodeState) getBuf(n int) []byte {
	if len(ns.bufPool) > 0 {
		b := ns.bufPool[len(ns.bufPool)-1]
		ns.bufPool = ns.bufPool[:len(ns.bufPool)-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n, hdrBytes+ns.svc.cfg.ValueBytes)
}

func (ns *nodeState) putBuf(b []byte) { ns.bufPool = append(ns.bufPool, b) }

func (ns *nodeState) getReq() *srvReq {
	if len(ns.reqPool) > 0 {
		r := ns.reqPool[len(ns.reqPool)-1]
		ns.reqPool = ns.reqPool[:len(ns.reqPool)-1]
		return r
	}
	return &srvReq{}
}

func (ns *nodeState) putReq(r *srvReq) { ns.reqPool = append(ns.reqPool, r) }
