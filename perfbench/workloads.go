package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	tccluster "repro"
)

// sizes fixes how much simulated work one rep does. defaultSizes is the
// benchmark; the tests shrink it to smoke-test scale.
type sizes struct {
	ServeNodes      int // chain length of serve-chain16
	RequestsPerNode int // open-loop arrivals per node per rep
	Rounds          int // ping-pong round trips per rep
	TorusW, TorusH  int // allreduce torus; ranks = W*H, steps per rep = ranks
	Workers         int // WithParallel worker count for allreduce
	AllreduceSetups int // allreduce set-ups per run (only the last one runs)
}

var defaultSizes = sizes{
	ServeNodes:      16,
	RequestsPerNode: 3000,
	Rounds:          20000,
	TorusW:          16,
	TorusH:          16,
	Workers:         2,
	AllreduceSetups: 9,
}

// sloPS is the latency bound a completed op must meet to count toward
// goodput: serve's default 25 us SLO, applied to every workload.
const sloPS = 25 * int64(tccluster.Microsecond)

// workload is one named benchmark input.
type workload struct {
	name string
	// reuse: one instance runs every rep, and its set-up is repeated
	// sizes.AllreduceSetups times only to time it; otherwise every rep
	// gets a freshly set-up instance.
	reuse bool
	setup func(sz sizes, seed uint64, opts []tccluster.Option) (instance, error)
}

// instance is one set-up workload: a booted cluster with its channels
// or service in place, ready to run reps.
type instance interface {
	cluster() *tccluster.Cluster
	// prepare arms the next rep; it is not timed.
	prepare()
	// run executes the armed rep to quiescence; this is the timed part.
	run()
	// result collects and checks the finished rep.
	result() (repResult, error)
}

// repResult is one rep's outcome as the workload sees it.
type repResult struct {
	attempted, completed, failed uint64
	inSLO                        uint64
	lat                          quantiles
	checksum                     uint64
	wrapFrames                   uint64
	serve                        *tccluster.ServeReport
}

// wrapFrames totals the ring-wrap frames of the channels a workload
// owns since they opened.
func wrapFrames(ss []*tccluster.Sender) uint64 {
	var n uint64
	for _, s := range ss {
		n += s.Stats().WrapFrames
	}
	return n
}

var workloads = []workload{
	{name: "serve-chain16", setup: setupServe},
	{name: "pingpong-chain2", setup: setupPingpong},
	{name: "allreduce-torus256", reuse: true, setup: setupAllreduce},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// splitmix64 is the generator every seeded input is drawn from.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillChunk writes the 64-byte payload identified by (seed, a, b).
func fillChunk(dst []byte, seed, a, b uint64) {
	base := splitmix64(seed ^ splitmix64(a<<32|b))
	for lane := 0; lane < len(dst)/8; lane++ {
		binary.LittleEndian.PutUint64(dst[lane*8:], splitmix64(base+uint64(lane)))
	}
}

// ---- serve-chain16 -------------------------------------------------

// serveInst is the internal/serve KV service on a chain with the
// default mix (90% reads, ReplicaN 2, 2 us mean exponential
// interarrival per node, token-bucket admission) over a 64k keyspace.
type serveInst struct {
	c   *tccluster.Cluster
	svc *tccluster.Service
}

func setupServe(sz sizes, seed uint64, opts []tccluster.Option) (instance, error) {
	topo, err := tccluster.Chain(sz.ServeNodes)
	if err != nil {
		return nil, err
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig(), opts...)
	if err != nil {
		return nil, err
	}
	cfg := tccluster.DefaultServeConfig()
	cfg.Keyspace = 1 << 16
	cfg.RequestsPerNode = sz.RequestsPerNode
	cfg.Seed = seed
	svc, err := c.NewService(cfg)
	if err != nil {
		return nil, err
	}
	return &serveInst{c: c, svc: svc}, nil
}

func (s *serveInst) cluster() *tccluster.Cluster { return s.c }
func (s *serveInst) prepare()                    {}

func (s *serveInst) run() {
	s.svc.Start()
	s.c.Run()
	s.svc.Stop()
	s.c.Run()
}

func (s *serveInst) result() (repResult, error) {
	rep := s.svc.Report()
	r := repResult{
		attempted: rep.Requests,
		completed: rep.Completed,
		failed:    rep.Timeouts + rep.Shed + rep.Unroutable + rep.Bad,
		inSLO:     rep.InSLO,
		lat:       quantiles{P50: rep.P50PS, P99: rep.P99PS, P999: rep.P999PS, N: rep.Completed},
		checksum:  rep.Checksum,
		serve:     &rep,
	}
	return r, checkServe(rep)
}

// checkServe holds a healthy-chain serve run to its accounting: every
// request ends exactly one way, no frame is malformed, none times out.
func checkServe(rep tccluster.ServeReport) error {
	if ended := rep.Completed + rep.Timeouts + rep.Shed + rep.Unroutable; ended != rep.Requests {
		return fmt.Errorf("serve: %d requests but %d completed + %d timeouts + %d shed + %d unroutable = %d",
			rep.Requests, rep.Completed, rep.Timeouts, rep.Shed, rep.Unroutable, ended)
	}
	if rep.Bad != 0 {
		return fmt.Errorf("serve: %d bad frames", rep.Bad)
	}
	if rep.Timeouts != 0 {
		return fmt.Errorf("serve: %d timeouts on a healthy chain", rep.Timeouts)
	}
	if rep.Requests == 0 {
		return fmt.Errorf("serve: no requests")
	}
	return nil
}

// ---- pingpong-chain2 -----------------------------------------------

// pingpong is the Fig. 7 shape: a closed-loop 64-byte message-library
// ping-pong between two nodes with the paper's spin polling, one
// message outstanding. Every callback and buffer is built at set-up, so
// a rep allocates nothing in the driver.
type pingpong struct {
	c        *tccluster.Cluster
	sAB, sBA *tccluster.Sender
	rAB, rBA *tccluster.Receiver
	now      func() tccluster.Time

	seed       uint64
	rounds     int
	ping, echo []byte
	round      int
	sentAt     tccluster.Time
	lat        []int64
	mismatches int
	sendErrs   int
	checksum   uint64

	onPing, onPong func([]byte, error)
	next           func()
	sendDone       func(error)
}

func setupPingpong(sz sizes, seed uint64, opts []tccluster.Option) (instance, error) {
	topo, err := tccluster.Chain(2)
	if err != nil {
		return nil, err
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig(), opts...)
	if err != nil {
		return nil, err
	}
	par := tccluster.DefaultMsgParams()
	p := &pingpong{c: c, seed: seed, rounds: sz.Rounds,
		ping: make([]byte, 64), echo: make([]byte, 64), lat: make([]int64, 0, sz.Rounds)}
	if p.sAB, p.rAB, err = c.OpenChannel(0, 1, par); err != nil {
		return nil, err
	}
	if p.sBA, p.rBA, err = c.OpenChannel(1, 0, par); err != nil {
		return nil, err
	}
	p.now = c.Node(0).Engine().Now
	p.sendDone = func(err error) {
		if err != nil {
			p.sendErrs++
		}
	}
	p.onPing = func(d []byte, err error) {
		if err != nil {
			return // stopped
		}
		copy(p.echo, d)
		p.sBA.Send(p.echo, p.sendDone)
		p.rAB.Recv(p.onPing)
	}
	p.next = func() {
		fillChunk(p.ping, p.seed, 0, uint64(p.round))
		p.sentAt = p.now()
		p.rBA.Recv(p.onPong)
		p.sAB.Send(p.ping, p.sendDone)
	}
	p.onPong = func(d []byte, err error) {
		if err != nil {
			return
		}
		p.lat = append(p.lat, int64(p.now()-p.sentAt))
		if !bytes.Equal(d, p.ping) {
			p.mismatches++
		}
		p.checksum = splitmix64(p.checksum ^ binary.LittleEndian.Uint64(d))
		p.round++
		if p.round < p.rounds {
			p.next()
			return
		}
		p.rAB.Stop()
	}
	return p, nil
}

func (p *pingpong) cluster() *tccluster.Cluster { return p.c }

func (p *pingpong) prepare() {
	p.round, p.mismatches, p.sendErrs, p.checksum = 0, 0, 0, 0
	p.lat = p.lat[:0]
}

func (p *pingpong) run() {
	p.rAB.Recv(p.onPing)
	p.next()
	p.c.Run()
}

func (p *pingpong) result() (repResult, error) {
	r := repResult{
		attempted:  uint64(p.rounds),
		completed:  uint64(len(p.lat)),
		checksum:   p.checksum,
		wrapFrames: wrapFrames([]*tccluster.Sender{p.sAB, p.sBA}),
	}
	r.failed = r.attempted - r.completed
	r.inSLO = countWithin(p.lat, sloPS)
	r.lat = exactQuantiles(p.lat)
	return r, checkPingpong(p.rounds, len(p.lat), p.mismatches, p.sendErrs)
}

// checkPingpong: every round completes and echoes its payload intact.
func checkPingpong(rounds, completed, mismatches, sendErrs int) error {
	if completed != rounds {
		return fmt.Errorf("pingpong: %d of %d rounds completed", completed, rounds)
	}
	if mismatches != 0 {
		return fmt.Errorf("pingpong: %d echoed payloads differ from the payload sent", mismatches)
	}
	if sendErrs != 0 {
		return fmt.Errorf("pingpong: %d sends failed", sendErrs)
	}
	return nil
}

// ---- allreduce-torus256 --------------------------------------------

// allreduce is a ring allreduce of 64-byte chunks (eight uint64 lanes)
// over msg channels on a W×H torus with two sockets per node, rank i
// sending to rank i+1 in row-major order. In each of the N = W*H steps
// a rank forwards the chunk it holds and folds in the one it receives,
// so after N steps every rank holds the lane-wise sum of all N chunks.
// One rep is one full allreduce; the instance runs every rep.
type allreduce struct {
	c     *tccluster.Cluster
	seed  uint64
	iter  uint64
	ranks []*rank
	want  [8]uint64
	lat   []int64
	sends []*tccluster.Sender
	wraps uint64 // wrap frames seen by the end of the last rep
}

// rank is one participant. Its callbacks run on the partition that owns
// its node, so it shares no mutable state with other ranks.
type rank struct {
	id, steps int
	send      *tccluster.Sender
	recv      *tccluster.Receiver
	now       func() tccluster.Time
	acc       [8]uint64
	step      int
	sentAt    tccluster.Time
	lat       []int64
	carry     *chunkBuf
	free      []*chunkBuf
	recvErrs  int
	sendErrs  int
	onRecv    func([]byte, error)
	post      func() // arm the receive, send the carried chunk
}

// chunkBuf is a send buffer. A queued Send reads its payload later, so
// a buffer returns to the rank's free list only when its send is done.
type chunkBuf struct {
	b    []byte
	done func(error)
}

func (r *rank) getBuf() *chunkBuf {
	if n := len(r.free); n > 0 {
		b := r.free[n-1]
		r.free = r.free[:n-1]
		return b
	}
	b := &chunkBuf{b: make([]byte, 64)}
	b.done = func(err error) {
		if err != nil {
			r.sendErrs++
		}
		r.free = append(r.free, b)
	}
	return b
}

func setupAllreduce(sz sizes, seed uint64, opts []tccluster.Option) (instance, error) {
	topo, err := tccluster.Torus(sz.TorusW, sz.TorusH)
	if err != nil {
		return nil, err
	}
	cfg := tccluster.DefaultConfig()
	cfg.SocketsPerNode = 2
	opts = append([]tccluster.Option{tccluster.WithParallel(sz.Workers)}, opts...)
	c, err := tccluster.New(topo, cfg, opts...)
	if err != nil {
		return nil, err
	}
	n := sz.TorusW * sz.TorusH
	ar := &allreduce{c: c, seed: seed, ranks: make([]*rank, n), lat: make([]int64, 0, n*n)}
	for i := 0; i < n; i++ {
		ar.ranks[i] = &rank{id: i, steps: n, now: c.Node(i).Engine().Now,
			lat: make([]int64, 0, n)}
	}
	for i := 0; i < n; i++ {
		s, r, err := c.OpenChannel(i, (i+1)%n, tccluster.DefaultMsgParams())
		if err != nil {
			return nil, err
		}
		ar.ranks[i].send = s
		ar.ranks[(i+1)%n].recv = r
		ar.sends = append(ar.sends, s)
	}
	for _, r := range ar.ranks {
		r := r
		r.post = func() {
			r.sentAt = r.now()
			r.recv.Recv(r.onRecv)
			r.send.Send(r.carry.b, r.carry.done)
		}
		r.onRecv = func(d []byte, err error) {
			if err != nil {
				r.recvErrs++
				return
			}
			r.lat = append(r.lat, int64(r.now()-r.sentAt))
			addLanes(&r.acc, d)
			r.carry = r.getBuf()
			copy(r.carry.b, d)
			r.step++
			if r.step < r.steps {
				r.post()
			}
		}
	}
	return ar, nil
}

func addLanes(acc *[8]uint64, d []byte) {
	for lane := range acc {
		acc[lane] += binary.LittleEndian.Uint64(d[lane*8:])
	}
}

// ringSum is the expected result, computed from the generator alone.
func ringSum(seed, iter uint64, n int) [8]uint64 {
	var sum [8]uint64
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		fillChunk(buf, seed, 1+iter, uint64(i))
		addLanes(&sum, buf)
	}
	return sum
}

func (a *allreduce) cluster() *tccluster.Cluster { return a.c }

func (a *allreduce) prepare() {
	a.want = ringSum(a.seed, a.iter, len(a.ranks))
	for _, r := range a.ranks {
		if r.carry != nil {
			// The chunk received in the last step was never sent on.
			r.free = append(r.free, r.carry)
		}
		r.acc, r.step, r.recvErrs, r.sendErrs = [8]uint64{}, 0, 0, 0
		r.lat = r.lat[:0]
		r.carry = r.getBuf()
		fillChunk(r.carry.b, a.seed, 1+a.iter, uint64(r.id))
	}
}

func (a *allreduce) run() {
	for _, r := range a.ranks {
		r.post()
	}
	a.c.Run()
}

func (a *allreduce) result() (repResult, error) {
	a.iter++
	accs := make([][8]uint64, len(a.ranks))
	a.lat = a.lat[:0]
	var steps, errs int
	for i, r := range a.ranks {
		accs[i] = r.acc
		a.lat = append(a.lat, r.lat...)
		steps += r.step
		errs += r.recvErrs + r.sendErrs
	}
	n := uint64(len(a.ranks))
	res := repResult{
		attempted:  n * n,
		completed:  uint64(steps),
		inSLO:      countWithin(a.lat, sloPS),
		checksum:   accsChecksum(accs),
		wrapFrames: wrapFrames(a.sends) - a.wraps,
	}
	res.failed = res.attempted - res.completed
	res.lat = exactQuantiles(a.lat)
	a.wraps += res.wrapFrames
	if errs != 0 {
		return res, fmt.Errorf("allreduce: %d channel errors", errs)
	}
	if res.completed != res.attempted {
		return res, fmt.Errorf("allreduce: %d of %d rank-steps completed", res.completed, res.attempted)
	}
	return res, checkAllreduce(accs, a.want)
}

// checkAllreduce: every rank ends holding the ring sum.
func checkAllreduce(accs [][8]uint64, want [8]uint64) error {
	for i, acc := range accs {
		if acc != want {
			return fmt.Errorf("allreduce: rank %d holds %x, want ring sum %x", i, acc, want)
		}
	}
	return nil
}

func accsChecksum(accs [][8]uint64) uint64 {
	var h uint64
	for _, acc := range accs {
		for _, v := range acc {
			h = splitmix64(h ^ v)
		}
	}
	return h
}

// ---- simulated latency ---------------------------------------------

// quantiles are simulated latencies in picoseconds over N samples.
type quantiles struct {
	P50, P99, P999 float64
	N              uint64
}

// exactQuantiles sorts samples in place and interpolates between order
// statistics. (Serve reports its own log2-bucket quantiles.)
func exactQuantiles(samples []int64) quantiles {
	q := quantiles{N: uint64(len(samples))}
	if len(samples) == 0 {
		return q
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(p float64) float64 {
		pos := p * float64(len(samples)-1)
		lo := int(pos)
		if lo+1 >= len(samples) {
			return float64(samples[lo])
		}
		frac := pos - float64(lo)
		return float64(samples[lo])*(1-frac) + float64(samples[lo+1])*frac
	}
	q.P50, q.P99, q.P999 = at(0.50), at(0.99), at(0.999)
	return q
}

func countWithin(samples []int64, bound int64) uint64 {
	var n uint64
	for _, s := range samples {
		if s <= bound {
			n++
		}
	}
	return n
}
