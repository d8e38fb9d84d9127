package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"repchain/internal/identity"
	"repchain/internal/metrics"
	"repchain/internal/reputation"
	"repchain/internal/transport"
	"repchain/internal/tx"
)

// loadReport is what the load process writes when it ends.
type loadReport struct {
	Providers []providerReport `json:"providers"`
	// Counters are the providers' endpoint counters
	// (transport.frames_sent, transport.retries, ...).
	Counters map[string]int64 `json:"counters"`
}

type providerReport struct {
	ID           string `json:"id"`
	Index        int    `json:"index"`
	Rounds       int    `json:"rounds"`
	Submitted    int    `json:"submitted"`
	SettledValid int    `json:"settled_valid"`
	SendFailures int    `json:"send_failures"`
	Err          string `json:"err,omitempty"`
}

// loadMain is the benchmark's load process for the TCP workloads. It
// hosts every provider of the roster in one process through
// transport.RunNode, so the providers' only connections are their
// links into the alliance. The providers submit tcpTxPerRound
// transactions per round of tcpRound, tcpValidFrac of them valid.
// After its providers' last round each provider's address keeps
// accepting and discarding frames for tcpDrainRounds more rounds, so
// governors' block multicasts to providers do not fail while the
// alliance drains.
func loadMain(args []string) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	var (
		roster  = fs.String("roster", "", "deployment file from repchain-keygen")
		rounds  = fs.Int("rounds", 0, "rounds each provider submits in")
		epochNS = fs.Int64("epoch-ns", 0, "round 1's start, Unix nanoseconds")
		seed    = fs.Int64("seed", 1, "seed of the providers' workload")
		out     = fs.String("out", "", "file to write the report to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := transport.LoadDeployment(*roster)
	if err != nil {
		return err
	}
	clock := transport.Clock{Epoch: time.Unix(0, *epochNS), Round: tcpRound}
	drainEnd := clock.Epoch.Add(time.Duration(*rounds+tcpDrainRounds) * tcpRound)
	reg := metrics.NewRegistry()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	specs := d.NodesByRole("provider")
	reports := make([]providerReport, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec transport.NodeSpec) {
			defer wg.Done()
			rep, err := transport.RunNode(transport.RuntimeConfig{
				Deployment: d,
				ID:         identity.NodeID(spec.ID),
				Clock:      clock,
				Rounds:     *rounds,
				Params:     reputation.DefaultParams(),
				Validator:  tx.ValidatorFunc(func(t tx.Transaction) bool { return firstByteValid(t.Payload) }),
				TxPerRound: tcpTxPerRound,
				ValidFrac:  tcpValidFrac,
				Seed:       *seed,
				Metrics:    reg,
				Logger:     logger,
			})
			reports[i] = providerReport{
				ID: spec.ID, Index: spec.Index, Rounds: rep.Rounds, Submitted: rep.Submitted,
				SettledValid: rep.SettledValid, SendFailures: rep.SendFailures,
			}
			if err != nil {
				reports[i].Err = err.Error()
			}
			sink(spec.Addr, drainEnd)
		}(i, spec)
	}
	wg.Wait()
	res := loadReport{Providers: reports, Counters: reg.Snapshot().Counters}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	for _, r := range reports {
		if r.Err != "" {
			return fmt.Errorf("%s: %s", r.ID, r.Err)
		}
	}
	return nil
}

// sink accepts connections on addr and discards what they send until
// the deadline. A failure to listen only loses the sink.
func sink(addr string, until time.Time) {
	if time.Until(until) <= 0 {
		return
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(io.Discard, c)
			}()
		}
	}()
	time.Sleep(time.Until(until))
	_ = ln.Close()
	mu.Lock()
	for _, c := range conns {
		_ = c.Close()
	}
	mu.Unlock()
	wg.Wait()
}
