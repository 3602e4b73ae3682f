package workload

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"vsched/internal/guest"
	"vsched/internal/metrics"
	"vsched/internal/sim"
)

// Server is a request/response workload: an open- or closed-loop client
// feeds requests to a worker pool; workers are small latency-sensitive tasks
// (Tailbench) or throughput-serving workers (Nginx). It measures queue,
// service and end-to-end time per request — the Table 3 breakdown.
type Server struct {
	env  Env
	name string

	// Workers and service.
	workers     int
	serviceMean sim.Duration
	serviceJit  float64 // relative variation
	// Open-loop: interarrival mean (exponential); 0 disables.
	interarrival sim.Duration
	// Closed-loop: number of always-pending connections; 0 disables.
	connections int
	// ThinkTime for closed-loop connections.
	think sim.Duration
	// MarkLatencySensitive marks the workers for bvs.
	markLS    bool
	footprint float64
	heavyTail bool

	// rng is the server's private random stream: arrival gaps and service
	// demands must not depend on how other components (probers, contenders)
	// interleave draws on the engine's shared source, or comparisons between
	// configurations would measure tail-sampling noise instead of
	// scheduling. Seeded from the engine seed and the server name.
	rng *rand.Rand

	reqSem   *guest.Semaphore
	arrivals reqFIFO // pending requests
	sticky   bool
	perSem   []*guest.Semaphore // per-worker queues (sticky mode)
	perArr   []reqFIFO

	// freeIRQ pools the records of requests in flight on the IRQ path, and
	// arriveFn is the open-loop arrival callback: both bound once, so the
	// request path allocates nothing per request.
	freeIRQ  []*irqRequest
	arriveFn func()

	ops     uint64
	e2e     *metrics.Histogram
	queue   *metrics.Histogram
	service *metrics.Histogram

	stopped bool
	started bool
}

// ServerConfig parameterises a Server.
type ServerConfig struct {
	Name         string
	Workers      int
	ServiceMean  sim.Duration
	ServiceJit   float64
	Interarrival sim.Duration // open loop (exponential), 0 = closed loop
	Connections  int          // closed loop concurrency
	Think        sim.Duration
	LatencyMark  bool
	FootprintMB  float64 // per-worker cache working set
	// HeavyTail draws service times from a bounded Pareto (shape 1.6, cap
	// 6x mean) instead of uniform jitter — the tail profile of search and
	// speech workloads like xapian and sphinx.
	HeavyTail bool
	// Sticky binds each closed-loop connection to one worker (nginx-style
	// event loops): load does not rotate across the pool, so a few busy
	// connections keep a few specific workers — and their vCPUs — hot.
	Sticky bool
}

// request is one in-flight request: when the server-side network path
// stamped it and how much service it demands. Demand is drawn at injection
// time so the request stream is identical across scheduler configurations.
type request struct {
	at  sim.Time
	svc sim.Duration
}

// irqRequest is a request between injection and interrupt delivery: its
// demand and, in sticky mode, its worker. Records are pooled per server and
// each one's deliver callback is bound once, when the record is minted.
type irqRequest struct {
	s       *Server
	w       int
	svc     sim.Duration
	deliver func()
}

// onDeliver runs in interrupt context: it stamps the request, queues it for
// its worker pool (or, in sticky mode, its worker) and returns the record
// to the pool.
func (r *irqRequest) onDeliver() {
	s := r.s
	vm := s.env.VM
	req := request{at: vm.Engine().Now(), svc: r.svc}
	w := r.w
	s.freeIRQ = append(s.freeIRQ, r)
	if s.sticky {
		s.perArr[w].push(req)
		vm.Post(s.perSem[w])
		return
	}
	s.arrivals.push(req)
	vm.Post(s.reqSem)
}

// reqFIFO is a request queue that pops by advancing a head index, so a pop
// costs O(1) however deep the backlog. Once the head passes half of the
// array, the live tail is copied down to the front: the array is reused
// instead of growing, and each request is copied O(1) times on average.
type reqFIFO struct {
	buf  []request
	head int
}

func (q *reqFIFO) len() int { return len(q.buf) - q.head }

func (q *reqFIFO) push(r request) { q.buf = append(q.buf, r) }

// pop removes and returns the oldest request; the queue must not be empty.
func (q *reqFIFO) pop() request {
	r := q.buf[q.head]
	q.head++
	if q.head > len(q.buf)/2 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	return r
}

// NewServer builds a server workload in env.
func NewServer(env Env, cfg ServerConfig) *Server {
	if cfg.Workers <= 0 {
		panic("workload: server needs workers")
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.Name))
	s := &Server{
		rng:          rand.New(rand.NewSource(env.VM.Engine().Seed() ^ int64(h.Sum64()))),
		env:          env,
		name:         cfg.Name,
		workers:      cfg.Workers,
		serviceMean:  cfg.ServiceMean,
		serviceJit:   cfg.ServiceJit,
		interarrival: cfg.Interarrival,
		connections:  cfg.Connections,
		think:        cfg.Think,
		markLS:       cfg.LatencyMark,
		footprint:    cfg.FootprintMB,
		heavyTail:    cfg.HeavyTail,
		sticky:       cfg.Sticky,
		reqSem:       guest.NewSemaphore(0),
		e2e:          metrics.NewHistogram(),
		queue:        metrics.NewHistogram(),
		service:      metrics.NewHistogram(),
	}
	s.arriveFn = s.onArrival
	return s
}

// Name implements Instance.
func (s *Server) Name() string { return s.name }

// Ops implements Instance.
func (s *Server) Ops() uint64 { return s.ops }

// Done implements Instance (servers are open-ended).
func (s *Server) Done() bool { return false }

// E2E implements LatencyInstance.
func (s *Server) E2E() *metrics.Histogram { return s.e2e }

// Queue implements LatencyInstance.
func (s *Server) Queue() *metrics.Histogram { return s.queue }

// Service implements LatencyInstance.
func (s *Server) Service() *metrics.Histogram { return s.service }

// ResetStats clears histograms and counters (used after warmup).
func (s *Server) ResetStats() {
	s.ops = 0
	s.e2e.Reset()
	s.queue.Reset()
	s.service.Reset()
}

// Stop ends request generation; in-flight requests drain.
func (s *Server) Stop() { s.stopped = true }

// Start implements Instance.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	if s.sticky {
		s.perSem = make([]*guest.Semaphore, s.workers)
		s.perArr = make([]reqFIFO, s.workers)
		for i := range s.perSem {
			s.perSem[i] = guest.NewSemaphore(0)
		}
	}
	for i := 0; i < s.workers; i++ {
		opts := append(s.env.groupOpt(), guest.StartOn(i%s.env.VM.NumVCPUs()))
		if s.footprint > 0 {
			opts = append(opts, guest.WithFootprint(s.footprint))
		}
		if s.markLS {
			opts = append(opts, guest.WithLatencySensitive())
		}
		s.env.VM.Spawn(fmt.Sprintf("%s/w%d", s.name, i), s.workerBehavior(i), opts...)
	}
	if s.interarrival > 0 {
		s.scheduleArrival()
	}
	for i := 0; i < s.connections; i++ {
		s.injectTo(i % s.workers)
	}
}

// inject delivers one request through the IRQ path. Interrupts spread
// across vCPUs per flow like a multi-queue NIC with RSS, so no single vCPU
// becomes the arrival hub. Like Tailbench, the request is timestamped when
// the server's network path enqueues it — queue time measures scheduling
// delay from that point, not the interrupt delivery itself.
func (s *Server) inject() { s.injectTo(0) }

// injectTo delivers one request; in sticky mode it lands on worker w's own
// queue, otherwise on the shared pool queue.
func (s *Server) injectTo(w int) {
	vm := s.env.VM
	irq := vm.VCPU(s.rng.Intn(vm.NumVCPUs()))
	var r *irqRequest
	if n := len(s.freeIRQ); n > 0 {
		r = s.freeIRQ[n-1]
		s.freeIRQ = s.freeIRQ[:n-1]
	} else {
		r = &irqRequest{s: s}
		r.deliver = r.onDeliver
	}
	r.w, r.svc = w, s.drawService()
	vm.DeliverIRQ(irq, r.deliver)
}

// drawService samples one request's service demand from the server's
// private stream.
func (s *Server) drawService() sim.Duration {
	if s.heavyTail {
		// Bounded Pareto with roughly the configured mean: shape 1.6 from
		// min mean/2.5, tail capped at 6x — the profile of search and
		// speech workloads like xapian and sphinx.
		return sim.Pareto(s.rng, 1.6, s.serviceMean*2/5, 6*s.serviceMean)
	}
	if s.serviceJit > 0 {
		jit := 1 + float64(s.serviceJit*(2*float64(s.rng.Float64())-1))
		return sim.Duration(float64(s.serviceMean) * jit)
	}
	return s.serviceMean
}

func (s *Server) scheduleArrival() {
	if s.stopped {
		return
	}
	s.env.VM.Engine().After(sim.Exp(s.rng, s.interarrival), s.arriveFn)
}

// onArrival is the open-loop arrival timer: inject one request, schedule
// the next.
func (s *Server) onArrival() {
	if s.stopped {
		return
	}
	s.inject()
	s.scheduleArrival()
}

// workerBehavior is the Tailbench-style loop for worker w: take a request,
// execute its service time, account latency, repeat.
func (s *Server) workerBehavior(w int) guest.Behavior {
	eng := s.env.VM.Engine()
	var arrival, svcStart sim.Time
	state := 0 // 0 waiting, 1 service done
	sem := func() *guest.Semaphore {
		if s.sticky {
			return s.perSem[w]
		}
		return s.reqSem
	}
	queue := func() *reqFIFO {
		if s.sticky {
			return &s.perArr[w]
		}
		return &s.arrivals
	}
	reinject := func() { s.injectTo(w) }
	return func(now sim.Time) guest.Segment {
		switch state {
		case 1:
			// Service segment completed.
			s.ops++
			s.e2e.Observe(int64(now.Sub(arrival)))
			s.service.Observe(int64(now.Sub(svcStart)))
			state = 0
			if s.connections > 0 && !s.stopped {
				// Closed loop: the connection issues its next request.
				eng.After(s.think, reinject)
			}
			return guest.SemWait(sem())
		default:
			q := queue()
			if q.len() == 0 {
				// Initial entry (or spurious wake): park on the queue.
				state = 0
				return guest.SemWait(sem())
			}
			// Woken with a request available.
			req := q.pop()
			arrival = req.at
			svcStart = now
			s.queue.Observe(int64(now.Sub(arrival)))
			state = 1
			return guest.Compute(s.env.cycles(req.svc))
		}
	}
}
