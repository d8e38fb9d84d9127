package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repchain/internal/ledger"
	"repchain/internal/metrics"
	"repchain/internal/tx"
)

// TCP workload shape: 4 providers, 4 collectors with r = 2, and 3
// governors, each collector and governor its own repchain-node
// process; R = 1 s with 32 transactions per provider per round.
const (
	tcpProviders   = 4
	tcpCollectors  = 4
	tcpGovernors   = 3
	tcpRound       = time.Second
	tcpTxPerRound  = 32
	tcpValidFrac   = 0.75
	tcpDrainRounds = 2
	// tcpSetupRuns is how many times the cluster is launched; setup_s
	// is the median, and the last launch is the measured one.
	tcpSetupRuns = 11
	// killGovernor is the governor tcp-restart kills and restarts.
	killGovernor = 2
	// pollEvery bounds how late the harness sees a commit.
	pollEvery = 10 * time.Millisecond
)

// node is one child process of a TCP run.
type node struct {
	id, role  string
	args      []string
	addr      string // protocol listen address
	adminAddr string // admin endpoint, empty for the load process
	logPath   string
	cmd       *exec.Cmd
	// launchedAt is when the current incarnation was started.
	launchedAt time.Time
	done       chan struct{}
	state      *os.ProcessState
	waitErr    error
	// cpu and rssKB accumulate over every incarnation of the node.
	cpu   time.Duration
	rssKB int64
	exits []string
}

func (n *node) start(bin string) error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	n.cmd = exec.Command(bin, n.args...)
	// Children die with the benchmark even if it is killed outright.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	n.cmd.Stdout, n.cmd.Stderr = logf, logf
	n.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	if err := n.cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", n.id, err)
	}
	n.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // the exit status is read from ProcessState
		logf.Close()
		n.state = cmd.ProcessState
		if st := cmd.ProcessState; st != nil {
			if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
				n.cpu += rusageCPU(ru)
				if ru.Maxrss > n.rssKB {
					n.rssKB = ru.Maxrss
				}
			}
			n.exits = append(n.exits, st.String())
		}
		close(done)
	}(n.cmd, n.done)
	return nil
}

// kill SIGKILLs the node if it still runs and waits for it.
func (n *node) kill() {
	if n.cmd == nil || n.done == nil {
		return
	}
	select {
	case <-n.done:
	default:
		_ = n.cmd.Process.Kill()
		<-n.done
	}
}

// exited reports whether the node's current incarnation has ended.
func (n *node) exited() bool {
	if n.done == nil {
		return true
	}
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// cluster is one launch of the TCP alliance.
type cluster struct {
	nodes []*node
	// load is the benchmark's own provider process.
	load *node
}

func (c *cluster) all() []*node { return append(append([]*node(nil), c.nodes...), c.load) }

func (c *cluster) killAll() {
	for _, n := range c.all() {
		n.kill()
	}
}

// rosterNode is the part of a repchain-keygen roster entry the harness
// reads.
type rosterNode struct {
	ID    string `json:"id"`
	Role  string `json:"role"`
	Index int    `json:"index"`
	Addr  string `json:"addr"`
}

// tcpPlan fixes everything a TCP run's launches share.
type tcpPlan struct {
	rc         *runCtx
	roster     string
	nodes      []rosterNode
	adminPorts []int
	rounds     int
	self       string
}

// freePorts finds n consecutive loopback ports that accept a listener
// now, below the kernel's ephemeral range so outgoing connections
// cannot take them later, starting from a random base.
func freePorts(n int) (int, error) {
	lo, hi := 10000, 32768
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil && v-lo > 10*n {
				hi = v
			}
		}
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())))
	for attempt := 0; attempt < 200; attempt++ {
		base := lo + rng.Intn(hi-lo-n)
		ok := true
		var lns []net.Listener
		for p := base; p < base+n; p++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				ok = false
				break
			}
			lns = append(lns, ln)
		}
		for _, ln := range lns {
			_ = ln.Close()
		}
		if ok {
			return base, nil
		}
	}
	return 0, errors.New("no free range of loopback ports")
}

// launch starts every node of the alliance and the load process with
// round 1 at epoch, and returns once every node accepts connections on
// its protocol and admin addresses, with the time that took.
func (p *tcpPlan) launch(ctx context.Context, tag string, epoch time.Time) (*cluster, time.Duration, error) {
	stateRoot, err := freshDir(p.rc, "state-"+tag)
	if err != nil {
		return nil, 0, err
	}
	logDir, err := freshDir(p.rc, "logs-"+tag)
	if err != nil {
		return nil, 0, err
	}
	c := &cluster{}
	start := time.Now()
	adminIdx := 0
	for _, rn := range p.nodes {
		if rn.Role == "provider" {
			continue
		}
		admin := fmt.Sprintf("127.0.0.1:%d", p.adminPorts[adminIdx])
		adminIdx++
		stateDir := filepath.Join(stateRoot, strings.ReplaceAll(rn.ID, "/", "-"))
		n := &node{
			id: rn.ID, role: rn.Role, addr: rn.Addr, adminAddr: admin,
			logPath: filepath.Join(logDir, strings.ReplaceAll(rn.ID, "/", "-")+".log"),
			args: []string{
				"-roster", p.roster, "-id", rn.ID,
				"-rounds", strconv.Itoa(p.rounds + tcpDrainRounds),
				"-round", tcpRound.String(),
				"-epoch", epoch.UTC().Format(time.RFC3339Nano),
				"-seed", strconv.FormatInt(p.rc.seed, 10),
				"-state", stateDir,
				"-admin-addr", admin,
			},
		}
		c.nodes = append(c.nodes, n)
	}
	c.load = &node{
		id: "load", role: "provider",
		logPath: filepath.Join(logDir, "load.log"),
		args: []string{
			"load", "-roster", p.roster,
			"-rounds", strconv.Itoa(p.rounds), "-epoch-ns", strconv.FormatInt(epoch.UnixNano(), 10),
			"-seed", strconv.FormatInt(p.rc.seed, 10),
			"-out", filepath.Join(logDir, "load-report.json"),
		},
	}
	for _, n := range c.nodes {
		launchStart := time.Now()
		if err := n.start(filepath.Join(p.rc.binDir, "repchain-node")); err != nil {
			c.killAll()
			return nil, 0, err
		}
		n.launchedAt = launchStart
	}
	if err := c.load.start(p.self); err != nil {
		c.killAll()
		return nil, 0, err
	}
	c.load.launchedAt = start
	// Every node, providers included, must accept connections.
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range c.nodes {
		if err := waitListening(ctx, n, deadline, n.addr, n.adminAddr); err != nil {
			c.killAll()
			return nil, 0, err
		}
		p.rc.spans.event("node_launch", n.launchedAt, time.Now(), n.id)
	}
	for _, rn := range p.nodes {
		if rn.Role == "provider" {
			if err := waitListening(ctx, c.load, deadline, rn.Addr); err != nil {
				c.killAll()
				return nil, 0, err
			}
		}
	}
	p.rc.spans.event("node_launch", c.load.launchedAt, time.Now(), "load")
	return c, time.Since(start), nil
}

// waitListening polls until every address accepts a TCP connection,
// failing if the node exits or the deadline passes.
func waitListening(ctx context.Context, n *node, deadline time.Time, addrs ...string) error {
	for _, a := range addrs {
		for {
			conn, err := net.DialTimeout("tcp", a, 100*time.Millisecond)
			if err == nil {
				_ = conn.Close()
				break
			}
			if n.exited() {
				return fmt.Errorf("%s exited before listening on %s (%s): %s", n.id, a, strings.Join(n.exits, "; "), tail(n.logPath, 5))
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not listening on %s: %w: %s", n.id, a, err, tail(n.logPath, 5))
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// heightPoller records when a governor's admin endpoint first reports
// each chain height.
type heightPoller struct {
	addr   string
	client *http.Client
	mu     sync.Mutex
	seen   map[uint64]time.Time
	height uint64
}

var heightRE = regexp.MustCompile(`height_max=(\d+)`)

func newHeightPoller(addr string) *heightPoller {
	return &heightPoller{
		addr:   addr,
		client: &http.Client{Timeout: 200 * time.Millisecond},
		seen:   map[uint64]time.Time{},
	}
}

// poll reads the height once; unreachable endpoints are skipped.
func (hp *heightPoller) poll() {
	resp, err := hp.client.Get("http://" + hp.addr + "/readyz")
	if err != nil {
		return
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	now := time.Now()
	m := heightRE.FindSubmatch(buf.Bytes())
	if m == nil {
		return
	}
	h, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil {
		return
	}
	hp.mu.Lock()
	defer hp.mu.Unlock()
	for s := hp.height + 1; s <= h; s++ {
		hp.seen[s] = now
	}
	if h > hp.height {
		hp.height = h
	}
}

// firstAbove returns the first time the height exceeded h at or after
// t, or zero.
func (hp *heightPoller) firstAbove(h uint64, t time.Time) time.Time {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	var best time.Time
	for s, at := range hp.seen {
		if s > h && !at.Before(t) && (best.IsZero() || at.Before(best)) {
			best = at
		}
	}
	return best
}

func (hp *heightPoller) current() uint64 {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	return hp.height
}

// scrape fetches a node's merged metrics snapshot.
func scrape(addr string) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// runTCP is the tcp-steady workload, and tcp-restart with restart set:
// the same load with governor/2 SIGKILLed in the middle round and
// restarted with its original command line three rounds later.
func runTCP(ctx context.Context, rc *runCtx, restart bool) (*report, error) {
	rounds := int(rc.window / tcpRound)
	if rounds < 4 || rounds > 255 {
		// Transport's providers write the round into one payload byte.
		return nil, fmt.Errorf("tcp workloads need 4 <= --seconds <= 255, got %s", rc.window)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	nAll := tcpProviders + tcpCollectors + tcpGovernors
	nAdmin := tcpCollectors + tcpGovernors
	base, err := freePorts(nAll + nAdmin)
	if err != nil {
		return nil, err
	}
	roster := filepath.Join(rc.runDir, "roster.json")
	keySeed := rc.seed + 1
	if keySeed == 0 {
		keySeed = 1 << 62 // repchain-keygen reads seed 0 as "random keys"
	}
	kg := exec.CommandContext(ctx, filepath.Join(rc.binDir, "repchain-keygen"),
		"-providers", strconv.Itoa(tcpProviders), "-collectors", strconv.Itoa(tcpCollectors),
		"-degree", "2", "-governors", strconv.Itoa(tcpGovernors),
		"-seed", strconv.FormatInt(keySeed, 10),
		"-base-port", strconv.Itoa(base), "-o", roster)
	if out, err := kg.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("repchain-keygen: %v: %s", err, out)
	}
	var dep struct {
		Nodes []rosterNode `json:"nodes"`
	}
	data, err := os.ReadFile(roster)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &dep); err != nil {
		return nil, fmt.Errorf("roster: %w", err)
	}
	plan := &tcpPlan{rc: rc, roster: roster, nodes: dep.Nodes, rounds: rounds, self: self}
	for i := 0; i < nAdmin; i++ {
		plan.adminPorts = append(plan.adminPorts, base+nAll+i)
	}

	// Trial launches: start the whole alliance with an epoch far away,
	// time it until every node accepts connections, and stop it.
	var setups []float64
	for i := 0; i < tcpSetupRuns-1; i++ {
		c, d, err := plan.launch(ctx, fmt.Sprintf("trial%d", i), time.Now().Add(time.Hour))
		if err != nil {
			return nil, fmt.Errorf("trial launch: %w", err)
		}
		c.killAll()
		setups = append(setups, d.Seconds())
	}
	margin := time.Duration(3*median(setups)*float64(time.Second)) + time.Second
	epoch := time.Now().Add(margin)
	lo0, _ := loopbackBytes()
	c, d, err := plan.launch(ctx, "run", epoch)
	if err != nil {
		return nil, err
	}
	defer c.killAll()
	setups = append(setups, d.Seconds())
	rep := newReport()
	if time.Now().After(epoch) {
		rep.note("launch took %.2fs, past round 1's start", d.Seconds())
	}

	var gov []*node
	for _, n := range c.nodes {
		if n.role == "governor" {
			gov = append(gov, n)
		}
	}
	// Commits are read from governor 0 alone, except around a restart,
	// where every governor is watched: polling costs the nodes CPU.
	pollers := make([]*heightPoller, len(gov))
	for i, g := range gov {
		if i == 0 || restart {
			pollers[i] = newHeightPoller(g.adminAddr)
		}
	}
	runEnd := epoch.Add(time.Duration(rounds+tcpDrainRounds) * tcpRound)
	hardDeadline := runEnd.Add(5 * time.Second)
	scrapeAt := epoch.Add(time.Duration(rounds+tcpDrainRounds-1)*tcpRound + tcpRound/20)
	killAt := epoch.Add(time.Duration(rounds/2-1)*tcpRound + tcpRound/10)
	restartAt := killAt.Add(3 * tcpRound)

	var (
		scraped             = map[string]metrics.Snapshot{}
		killedAt, restarted time.Time
		heightAtKill        uint64
		restartHeight       uint64
		scrapedDone         bool
	)
	for time.Now().Before(hardDeadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := time.Now()
		for _, hp := range pollers {
			if hp != nil {
				hp.poll()
			}
		}
		if restart && killedAt.IsZero() && !now.Before(killAt) {
			g := gov[killGovernor]
			heightAtKill = pollers[0].current()
			if h := pollers[1].current(); h > heightAtKill {
				heightAtKill = h
			}
			restartHeight = pollers[killGovernor].current()
			killedAt = time.Now()
			g.kill()
			rc.spans.event("node_kill", killedAt, time.Now(), g.id)
		}
		if restart && !killedAt.IsZero() && restarted.IsZero() && !now.Before(restartAt) {
			g := gov[killGovernor]
			restarted = time.Now()
			if err := g.start(filepath.Join(rc.binDir, "repchain-node")); err != nil {
				return nil, err
			}
			if err := waitListening(ctx, g, time.Now().Add(10*time.Second), g.addr, g.adminAddr); err != nil {
				rep.note("restarted %s never listened: %v", g.id, err)
			}
			rc.spans.event("node_restart", restarted, time.Now(), g.id)
		}
		if !scrapedDone && !now.Before(scrapeAt) {
			scrapedDone = true
			for _, n := range c.nodes {
				snap, err := scrape(n.adminAddr)
				if err != nil {
					rep.note("%s admin metrics unreadable at the end of the load (%v); its counters read 0", n.id, err)
					continue
				}
				scraped[n.id] = snap
			}
		}
		allDone := true
		for _, n := range c.all() {
			if !n.exited() {
				allDone = false
			}
		}
		if allDone {
			break
		}
		time.Sleep(pollEvery)
	}
	stragglers := 0
	for _, n := range c.all() {
		if !n.exited() {
			stragglers++
			n.kill()
		}
	}
	if stragglers > 0 {
		rep.note("%d processes still running at the hard deadline were SIGKILLed", stragglers)
	}
	lo1, _ := loopbackBytes()
	rep.e2e("setup_s", median(setups))

	// Node exits and log tails.
	logOut := rc.outPrefix + "-logs"
	if err := os.MkdirAll(logOut, 0o755); err != nil {
		return nil, err
	}
	for _, n := range c.all() {
		t := tail(n.logPath, 40)
		_ = os.WriteFile(filepath.Join(logOut, filepath.Base(n.logPath)), []byte(t), 0o644)
		if n.state != nil && !n.state.Success() {
			rep.note("%s exited %s: %s", n.id, n.state, lastLine(t))
		}
	}

	var lr loadReport
	if data, err := os.ReadFile(filepath.Join(filepath.Dir(c.load.logPath), "load-report.json")); err == nil {
		if err := json.Unmarshal(data, &lr); err != nil {
			return nil, fmt.Errorf("load report: %w", err)
		}
	} else {
		rep.note("load process wrote no report: %v", err)
	}

	// Chains: audit every governor's directory, compare them block for
	// block, and read the records from governor 0's.
	stateRoot := filepath.Join(rc.runDir, "state-run")
	chains := make([][]ledger.Block, len(gov))
	var diskBytes int64
	var reopen, verify time.Duration
	for j := range gov {
		dir := filepath.Join(stateRoot, fmt.Sprintf("governor-%d", j), fmt.Sprintf("governor-%d.chain", j))
		size, _ := dirBytes(filepath.Dir(dir))
		diskBytes += size
		t0 := time.Now()
		st, err := ledger.OpenFileStore(dir)
		if err != nil {
			rep.violate("governor %d chain dir: %v", j, err)
			continue
		}
		if j == 0 {
			reopen = time.Since(t0)
		}
		t1 := time.Now()
		rep.check(fmt.Sprintf("governor %d VerifyChain", j), ledger.VerifyChain(st))
		if j == 0 {
			verify = time.Since(t1)
		}
		for s := st.FirstAvailable(); s >= 1 && s <= st.Height(); s++ {
			b, err := st.Get(s)
			if err != nil {
				rep.violate("governor %d block %d: %v", j, s, err)
				break
			}
			chains[j] = append(chains[j], b)
		}
		_ = st.Close()
	}
	for j := 1; j < len(chains); j++ {
		for k := 0; k < len(chains[j]) && k < len(chains[0]); k++ {
			if chains[j][k].Hash() != chains[0][k].Hash() {
				rep.violate("governor %d block %d differs from governor 0's", j, chains[j][k].Serial)
				break
			}
		}
	}

	providerIdx := map[string]int{}
	for _, rn := range dep.Nodes {
		if rn.Role == "provider" {
			providerIdx[rn.ID] = rn.Index
		}
	}
	bk := tcpBook(rc.seed, rounds)
	lag := classifyTCP(bk, chains[0], pollers[0].seen, providerIdx, epoch)
	rep.violations = append(rep.violations, bk.violations...)
	windowEnd := epoch.Add(time.Duration(rounds) * tcpRound)
	attempted, inWindow, committed, lat := bk.validStats(epoch, windowEnd)
	records := 0
	for _, b := range chains[0] {
		records += len(b.Records)
	}

	var cpu time.Duration
	var rssKB int64
	roleCPU := map[string]time.Duration{}
	for _, n := range c.all() {
		cpu += n.cpu
		rssKB += n.rssKB
		roleCPU[n.role] += n.cpu
	}
	rep.addOutcome(attempted, inWindow, committed, lat, perTx(cpu.Seconds()*1e3, committed), rc.window)
	rep.e2e("rss_mb", float64(rssKB)/1024)
	rep.note("rounds=%d blocks(gov0)=%d records=%d halted=%v", rounds, len(chains[0]), records, len(chains[0]) < rounds)

	// Per-layer metrics from the nodes' admin endpoints, the load
	// process and the OS.
	sumCounter := func(role, name string) (v int64) {
		for _, n := range c.nodes {
			if role == "" || n.role == role {
				v += scraped[n.id].Counters[name]
			}
		}
		return v
	}
	sumPrefix := func(role, prefix string) (v int64) {
		for _, n := range c.nodes {
			if n.role == role {
				for k, x := range scraped[n.id].Counters {
					if strings.HasPrefix(k, prefix) {
						v += x
					}
				}
			}
		}
		return v
	}
	frames := sumCounter("", "transport.frames_sent") + lr.Counters["transport.frames_sent"]
	rep.layer("transport.frames_per_tx", perTx(float64(frames), committed))
	rep.layer("transport.send_failures", float64(sumCounter("", "transport.send_failures")+lr.Counters["transport.send_failures"]))
	rep.layer("transport.retries", float64(sumCounter("", "transport.retries")+lr.Counters["transport.retries"]))
	rep.layer("transport.lo_bytes_per_tx", perTx(float64(lo1-lo0), committed))
	for _, role := range []string{"provider", "collector", "governor"} {
		rep.layer("transport.cpu_ms_per_tx."+role, perTx(roleCPU[role].Seconds()*1e3, committed))
	}
	stages := map[string]metrics.HistogramSnapshot{}
	for _, n := range gov {
		for _, st := range []string{"screen", "elect", "pack", "commit"} {
			h, ok := scraped[n.id].Histograms[`round.stage_seconds{stage="`+st+`"}`]
			if !ok {
				continue
			}
			acc := stages[st]
			if acc.Counts == nil {
				acc = metrics.HistogramSnapshot{Bounds: h.Bounds, Counts: make([]int64, len(h.Counts))}
			}
			for i := range h.Counts {
				acc.Counts[i] += h.Counts[i]
			}
			acc.Count += h.Count
			acc.Sum += h.Sum
			stages[st] = acc
		}
	}
	for _, st := range []string{"ingest", "resync", "upload", "screen", "elect", "pack", "commit", "argue"} {
		h := stages[st]
		rep.layer("core.stage_ms."+st, perTx(1e3*h.Sum, int(h.Count)))
		if st == "screen" || st == "elect" || st == "pack" || st == "commit" {
			rep.layer("transport.stage_ms_p99."+st, 1e3*h.Quantile(0.99))
		}
	}
	rep.layer("transport.screen_slack_ms", 1e3*(0.75-0.55)*tcpRound.Seconds()-1e3*stages["screen"].Quantile(0.99))
	checked := sumPrefix("governor", "screen.checked_total")
	unchecked := sumPrefix("governor", "screen.unchecked_total")
	rep.layer("reputation.check_fraction", perTx(float64(checked), int(checked+unchecked)))
	rep.layer("reputation.unchecked_per_tx", perTx(float64(unchecked), committed))
	for _, role := range []string{"governor", "collector"} {
		misses, have := 0.0, false
		for _, n := range c.nodes {
			if v, ok := scraped[n.id].Gauges["sigcache.misses"]; ok && n.role == role {
				misses += v
				have = true
			}
		}
		if !have {
			rep.note("crypto.verifies_per_tx.%s: repchain-node does not export sigcache counters; reported as 0", role)
		}
		rep.layer("crypto.verifies_per_tx."+role, perTx(misses, committed))
	}
	var spansEmitted, eventsEmitted, spansDropped, eventsDropped float64
	for _, n := range c.nodes {
		g := scraped[n.id].Gauges
		spansEmitted += g["trace.spans"] + g["trace.dropped_total"]
		spansDropped += g["trace.dropped_total"]
		eventsEmitted += g["events.len"] + g["events.dropped_total"]
		eventsDropped += g["events.dropped_total"]
	}
	scrapedRounds := float64(rounds + tcpDrainRounds - 1)
	rep.layer("trace.spans_per_round", spansEmitted/scrapedRounds)
	rep.layer("events.events_per_round", eventsEmitted/scrapedRounds)
	rep.layer("trace.dropped", spansDropped)
	rep.layer("events.dropped", eventsDropped)
	rep.layer("ledger.disk_bytes_per_tx", perTx(float64(diskBytes), committed))
	rep.layer("ledger.snapshots", float64(sumCounter("governor", "ledger.snapshots_total")))
	rep.layer("ledger.segments_pruned", float64(sumCounter("governor", "ledger.segments_pruned_total")))
	rep.layer("ledger.reopen_ms", float64(reopen.Microseconds())/1e3)
	rep.layer("ledger.verify_chain_us_per_block", perTx(float64(verify.Microseconds()), len(chains[0])))
	rep.layer("repchain.txs_per_round", perTx(float64(records), len(chains[0])))
	sort.Float64s(lag)
	if q, ok := supportedQuantile(len(lag), 0.99); ok {
		rep.layer("bench.generator_lag_ms_p99", quantile(lag, q))
	} else {
		rep.layer("bench.generator_lag_ms_p99", 0)
	}

	// Restart: downtime runs from the kill until a live governor next
	// commits, catch-up from the restart until the restarted governor
	// commits; both are capped at the end of the run.
	downtime, catchup := 0.0, 0.0
	if restart && !killedAt.IsZero() {
		next := time.Time{}
		for j, hp := range pollers {
			if j == killGovernor {
				continue
			}
			if t := hp.firstAbove(heightAtKill, killedAt); !t.IsZero() && (next.IsZero() || t.Before(next)) {
				next = t
			}
		}
		if next.IsZero() {
			next = runEnd
			rep.note("no live governor committed after the kill: downtime capped at the end of the run")
		}
		downtime = next.Sub(killedAt).Seconds()
		if !restarted.IsZero() {
			first := pollers[killGovernor].firstAbove(restartHeight, restarted)
			if first.IsZero() {
				first = runEnd
				rep.note("restarted governor never committed: catch-up capped at the end of the run")
			} else {
				rc.spans.event("restart_first_commit", restarted, first, gov[killGovernor].id)
			}
			catchup = first.Sub(restarted).Seconds()
		}
		rep.note("downtime_s=%.3f restart_catchup_s=%.3f", downtime, catchup)
	}
	rep.layer("transport.downtime_s", downtime)
	rep.layer("transport.restart_catchup_s", catchup)
	// No facade, no in-process engine and no validator of the
	// benchmark's own run here.
	rep.zero("repchain.", "crypto.", "tx.", "mempool.", "shard.", "go.", "bench.trace_overhead")
	return rep, nil
}

// tcpKey names one transaction of the TCP load the way transport's
// provider writes it into the payload {validity, index, round}.
type tcpKey struct{ provider, round, i int }

// tcpBook enters every transaction the load process's providers
// submit. Their workload is a pure function of the seed: provider p
// draws tcpTxPerRound validities per round, in order, from
// rand.NewSource(seed + p). Each transaction's due time is its signed
// submit timestamp, known only once its record is read.
func tcpBook(seed int64, rounds int) *book[tcpKey] {
	b := newBook[tcpKey]()
	for p := 0; p < tcpProviders; p++ {
		rng := rand.New(rand.NewSource(seed + int64(p)))
		for r := 1; r <= rounds; r++ {
			for i := 0; i < tcpTxPerRound; i++ {
				b.admit(tcpKey{p, r, i}, b.offer(time.Time{}, rng.Float64() < tcpValidFrac))
			}
		}
	}
	return b
}

// classifyTCP classifies every record of a governor's chain. seen maps
// each serial to when the harness first saw that height; a block it
// never saw commits nothing. providerIdx maps provider IDs to roster
// indices. It returns how late, in ms after its round's start, each
// committed transaction was submitted. A record whose validity byte
// disagrees with the seed's draw fails the check: the expected
// workload has fallen out of step with transport's.
func classifyTCP(b *book[tcpKey], blocks []ledger.Block, seen map[uint64]time.Time, providerIdx map[string]int, epoch time.Time) (lag []float64) {
	for _, blk := range blocks {
		at, ok := seen[blk.Serial]
		for _, r := range blk.Records {
			t := r.Signed.Tx
			p, okp := providerIdx[string(t.Provider)]
			if !okp || len(t.Payload) != 3 {
				b.violate("block %d holds a transaction the load did not submit", blk.Serial)
				continue
			}
			k := tcpKey{p, int(t.Payload[2]), int(t.Payload[1])}
			i, valid := b.check(k, r.Status == tx.StatusValid, "block", blk.Serial)
			if i < 0 {
				continue
			}
			if (t.Payload[0] == 1) != b.txs[i].valid {
				b.violate("block %d: transaction %v has validity byte %d but the seed drew valid=%v", blk.Serial, k, t.Payload[0], b.txs[i].valid)
				continue
			}
			if !valid || !ok || !b.commitAt(i, at) {
				continue
			}
			due := time.Unix(0, t.Timestamp)
			b.txs[i].due = due
			lag = append(lag, float64(due.Sub(epoch.Add(time.Duration(k.round-1)*tcpRound)))/1e6)
		}
	}
	return lag
}

// tail returns the last n lines of a file.
func tail(path string, n int) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) > n {
			lines = lines[1:]
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
