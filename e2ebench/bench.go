package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tdb"
	"tdb/server"
	"tdb/temporal"
	"tdb/tquel"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration // length of the timed phase
	trace    bool
	dir      string // scratch space for databases and the span file
	sz       sizes
}

// Fixed shape of every run.
const (
	setupRuns = 9 // set-ups timed for setup_s; the median is reported

	// appendRate paces scan's appends, per second. Paced arrivals do not
	// follow the reads, so the share of appends that wait behind a read is
	// the share of time reads keep the server busy, whatever the rate: at
	// 25, 100 and 400/s on a 2-vCPU host, 73%, 68% and 67% of appends
	// waited over 1 ms, the append p99 read 31, 31 and 35 ms, and the
	// reader kept 45-47 reads/s. The rate sets only how many samples the
	// append p99 rests on: 100/s leaves 15 beyond it in a 15 s run (67/s
	// is the least that leaves 10), and it is 1% of the ~10k appends/s
	// that ingest's one connection sustains on the same host, so the feed
	// barely loads it.
	appendRate = 100
)

// instance is one opened and preloaded database.
type instance struct {
	db    *tdb.DB
	path  string
	chron []temporal.Chronon // commit chronon after each Relation.Load call
}

var schemas = []string{
	`create temporal relation gen (id = string, shard = string, v = int) key (id)`,
	`create temporal relation feed (id = string, shard = string, v = int)`,
	`create temporal relation ing (id = string, shard = string, v = int)`,
}

// loadRows builds the Relation.Load input for each preload call.
func loadRows(h *history) [][]tdb.LoadRow {
	out := make([][]tdb.LoadRow, h.sz.loads)
	for l := range out {
		lo, hi := h.loadRange(l)
		rows := make([]tdb.LoadRow, 0, hi-lo)
		for id := lo; id < hi; id++ {
			r := &h.rows[id]
			rows = append(rows, tdb.LoadRow{
				Data: tdb.Tuple{tdb.String(keyName(id)),
					tdb.String(fmt.Sprintf("s%02d", r.shard)), tdb.Int(r.v)},
				From: r.from, To: r.to,
			})
		}
		out[l] = rows
	}
	return out
}

// setup opens a fresh log-backed database (WAL and group commit on, no
// fsync per commit: tdbd -db without -sync) and preloads gen. The
// returned duration covers tdb.Open, the schema and every Relation.Load.
func setup(path string, h *history) (*instance, time.Duration, error) {
	rows := loadRows(h)
	start := time.Now()
	db, err := tdb.Open(path, tdb.Options{Clock: temporal.NewTickingClock(epoch)})
	if err != nil {
		return nil, 0, fmt.Errorf("open %s: %w", path, err)
	}
	inst := &instance{db: db, path: path}
	ses := tquel.NewSession(db)
	for _, src := range schemas {
		if _, err := ses.Exec(src); err != nil {
			db.Close()
			return nil, 0, fmt.Errorf("%s: %w", src, err)
		}
	}
	gen, err := db.Relation("gen")
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	for _, chunk := range rows {
		if _, err := gen.Load(chunk); err != nil {
			db.Close()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
		inst.chron = append(inst.chron, db.Now())
	}
	return inst, time.Since(start), nil
}

// countingListener counts the bytes the server writes to its clients.
type countingListener struct {
	net.Listener
	written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.written}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// served is a running tdbd over one instance.
type served struct {
	srv  *server.Server
	ln   *countingListener
	done chan error
}

func serve(inst *instance) (*served, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: server.New(inst.db, nil), ln: &countingListener{Listener: l}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(s.ln) }()
	return s, nil
}

func (s *served) addr() string { return s.ln.Addr().String() }

// stop closes the server and waits for Serve to return.
func (s *served) stop() error {
	err := s.srv.Close()
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// sample is one completed request.
type sample struct {
	kind  string
	start time.Duration // from the phase start: due (paced) or sent (closed loop)
	lat   time.Duration // start to reply
	late  time.Duration // due to sent; a closed loop's request is due at the previous reply
	call  time.Duration // sent to reply: the server.Client call
}

// connLog is what one connection did in a phase.
type connLog struct {
	ops     []op // kept for the traced run only
	samples []sample
	failed  int
	wrong   error // first wrong answer
	check   *checker
}

// phase is one timed run of a workload against a served instance.
type phase struct {
	conns   []*connLog
	elapsed time.Duration
	written int64 // bytes the server wrote in the timed phase
	d       delta // counters over the timed phase
	final   error // the after-phase check of appends
}

// wirePhase drives the server for cfg.seconds with the workload's
// connections and checks every answer as it arrives.
func wirePhase(cfg config, h *history, inst *instance, s *served) (*phase, error) {
	type loop struct {
		st    *stream
		paced bool
	}
	var loops []loop
	switch cfg.workload {
	case "keyed":
		for c := 0; c < 2; c++ {
			loops = append(loops, loop{st: newStream(cfg.seed, cfg.workload, c, 2, h, inst.chron)})
		}
	case "ingest":
		// One closed loop. With two, the two clients, their two server
		// handlers and the group committer outnumber two vCPUs: 0.64% of
		// appends waited a whole 4 ms scheduler tick, which set the p99.9
		// and took 25% of the connections' time, so the run measured the
		// host's scheduler. With one, 0.025% wait over 3 ms.
		loops = append(loops, loop{st: newStream(cfg.seed, cfg.workload, 0, 1, h, inst.chron)})
	case "scan":
		loops = append(loops,
			loop{st: newStream(cfg.seed, cfg.workload, 0, 2, h, inst.chron)},
			loop{st: newStream(cfg.seed, cfg.workload, 1, 2, h, inst.chron), paced: true})
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	clients := make([]*server.Client, len(loops))
	for i := range loops {
		c, err := server.Dial(s.addr())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if err := declare(c); err != nil {
			return nil, err
		}
		clients[i] = c
	}
	p := &phase{conns: make([]*connLog, len(loops))}
	for i := range p.conns {
		p.conns[i] = &connLog{check: newChecker(h)}
	}
	for _, o := range warmup(cfg.workload, cfg.sz) {
		resp, err := clients[0].Exec(o.src)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := verify(p.conns[0], o, wireReply(resp)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	before, counted := s.ln.written.Load(), readCounters()
	var wg sync.WaitGroup
	start := time.Now()
	for i, lp := range loops {
		log := p.conns[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(clients[i], lp.st, lp.paced, cfg, start, log)
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.written = s.ln.written.Load() - before
	p.d = delta{counted, readCounters()}
	return p, nil
}

func declare(c *server.Client) error {
	resp, err := c.Exec(`range of g is gen`)
	if err != nil {
		return fmt.Errorf("declaring range: %w", err)
	}
	if resp.Error != "" {
		return fmt.Errorf("declaring range: %s", resp.Error)
	}
	return nil
}

// drive runs one connection until the phase ends. A closed loop sends
// the next request when the previous reply arrives; the paced loop sends
// appends at appendRate per second and times each from when it was due.
func drive(c *server.Client, st *stream, paced bool, cfg config, start time.Time, log *connLog) {
	const interval = time.Second / appendRate
	due := time.Duration(0)
	for i := 0; ; i++ {
		var o op
		if paced {
			due = time.Duration(i) * interval
			if due >= cfg.seconds {
				return
			}
			o = st.gen(kindAppend)
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		} else {
			if due >= cfg.seconds {
				return
			}
			o = st.next()
		}
		sent := time.Since(start)
		resp, err := c.Exec(o.src)
		done := time.Since(start)
		if cfg.trace {
			log.ops = append(log.ops, o) // the in-process pass replays them
		}
		from := due // paced: timed from when it was due
		if !paced {
			from = sent
		}
		log.samples = append(log.samples, sample{kind: o.kind, start: from, lat: done - from, late: sent - due, call: done - sent})
		if !paced {
			due = done // a closed loop's next request is due at the reply
		}
		if err != nil {
			log.failed++
			if log.wrong == nil {
				log.wrong = fmt.Errorf("%s: %w", o.src, err)
			}
			return // the transport is gone
		}
		if err := verify(log, o, wireReply(resp)); err != nil && log.wrong == nil {
			log.wrong = err
		}
	}
}

func wireReply(resp *server.Response) reply {
	r := outReply(resp.Outcomes)
	r.err = resp.Error
	return r
}

// verify records a failed operation or checks a successful one.
func verify(log *connLog, o op, r reply) error {
	if r.err != "" {
		log.failed++
		return fmt.Errorf("%s: %s", o.src, r.err)
	}
	return log.check.check(o, r)
}

// appended lists the ids stored in an append relation, read in process.
func appended(db *tdb.DB, rel string) ([]string, error) {
	res, err := tquel.NewSession(db).Query(fmt.Sprintf(`range of a is %s retrieve (a.id)`, rel))
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, res.Len())
	for _, row := range res.Rows {
		ids = append(ids, row.Data[0].Str())
	}
	return ids, nil
}

// ackedKeys merges every connection's acknowledged appends.
func (p *phase) ackedKeys() []int {
	var keys []int
	for _, c := range p.conns {
		keys = append(keys, c.check.acked...)
	}
	return keys
}

// finalCheck verifies the appends once the phase is over. On ingest the
// database is closed and reopened from its log first, so the check
// covers durability of every acknowledged append.
func finalCheck(cfg config, inst *instance, p *phase) error {
	switch cfg.workload {
	case "scan":
		ids, err := appended(inst.db, "feed")
		if err != nil {
			return err
		}
		return sameKeys("feed", ids, p.ackedKeys())
	case "ingest":
		if err := inst.db.Close(); err != nil {
			return err
		}
		db, err := tdb.Open(inst.path, tdb.Options{})
		inst.db = db
		if err != nil {
			return fmt.Errorf("reopening: %w", err)
		}
		ids, err := appended(db, "ing")
		if err != nil {
			return err
		}
		return sameKeys("ing after reopen", ids, p.ackedKeys())
	}
	return nil
}

// scratchDir makes a fresh directory for one database.
func scratchDir(root, name string) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
