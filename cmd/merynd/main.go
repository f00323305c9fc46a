// Command merynd is the Meryn platform daemon: it assembles a platform,
// opens a session and serves the HTTP/JSON control plane, turning the
// simulation into an open PaaS that accepts submissions at runtime.
//
// Time advances in one of two modes:
//
//   - virtual (default): time fast-forwards after every state-changing
//     request — an accepted application runs to settlement instantly.
//     Good for demos, tests and the smoke workflow.
//   - wall: virtual time tracks wall-clock time scaled by -speed, so a
//     1550 s application at -speed 60 completes in ~26 real seconds and
//     /v1/events can be watched live.
//
// With -state-dir the control plane is crash-safe: every state-changing
// request is journaled (fsync'd, write-ahead) under the directory, and
// a restart on the same directory replays the journal through the
// session API, rebuilding the pre-crash platform state — a kill -9
// mid-negotiation is invisible to a retrying client. The daemon seals
// the state every 64 records, after recovery and at shutdown; replay
// must reproduce the last seal's digest, or merynd reports the
// divergence and exits 1 without serving. While the replay runs,
// /healthz reports "recovering" (503) and every other route is refused
// with Retry-After.
//
// Usage:
//
//	merynd                                  # virtual time on 127.0.0.1:8080
//	merynd -addr 127.0.0.1:0 -addr-file a   # random port, written to file a
//	merynd -mode wall -speed 60             # scaled wall-clock time
//	merynd -policy static -seed 7
//	merynd -state-dir /var/lib/meryn        # durable journal + seal
//	merynd -vcs "fn1:serverless:12,vc1:batch:25"   # custom virtual clusters
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"meryn"
	"meryn/internal/api/server"
	"meryn/internal/durable"
	"meryn/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// parseVCs parses the -vcs flag: comma-separated name:type:vms triples,
// e.g. "fn1:serverless:12,vc1:batch:25".
func parseVCs(spec string) ([]meryn.VCConfig, error) {
	var vcs []meryn.VCConfig
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 || fields[0] == "" {
			return nil, fmt.Errorf("bad VC spec %q (want name:type:vms)", part)
		}
		var typ meryn.AppType
		switch fields[1] {
		case "batch":
			typ = meryn.TypeBatch
		case "mapreduce":
			typ = meryn.TypeMapReduce
		case "service":
			typ = meryn.TypeService
		case "serverless":
			typ = meryn.TypeServerless
		default:
			return nil, fmt.Errorf("unknown VC type %q in %q (want batch, mapreduce, service or serverless)", fields[1], part)
		}
		vms, err := strconv.Atoi(fields[2])
		if err != nil || vms <= 0 {
			return nil, fmt.Errorf("bad VM count %q in %q", fields[2], part)
		}
		vcs = append(vcs, meryn.VCConfig{Name: fields[0], Type: typ, InitialVMs: vms})
	}
	return vcs, nil
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("merynd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free one)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening")
		mode     = fs.String("mode", "virtual", "time mode: virtual (fast-forward) or wall (scaled wall-clock)")
		speed    = fs.Float64("speed", 60, "wall mode: virtual seconds per wall second")
		policy   = fs.String("policy", "meryn", "resource policy: meryn or static")
		vcSpec   = fs.String("vcs", "", "virtual clusters as name:type:vms[,...] (types: batch, mapreduce, service, serverless; empty keeps the paper's two batch VCs)")
		seed     = fs.Int64("seed", 1, "RNG seed")
		stateDir = fs.String("state-dir", "", "durable state directory (append-only journal + seal checked at boot); empty disables persistence")
		maxInfl  = fs.Int("max-inflight", 256, "max concurrent state-changing requests before shedding with 429 (0 = unbounded)")
		httpTO   = fs.Duration("http-timeout", 10*time.Second, "HTTP read and read-header timeout (Slowloris guard)")
		drainTO  = fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget for in-flight requests")
		logLevel = fs.String("log-level", "info", "structured log level: debug, info, warn or error")
		logJSON  = fs.Bool("log-json", false, "emit structured logs as JSON instead of logfmt text")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := meryn.DefaultConfig()
	cfg.Seed = *seed
	switch *policy {
	case "meryn":
		cfg.Policy = meryn.PolicyMeryn
	case "static":
		cfg.Policy = meryn.PolicyStatic
	default:
		fmt.Fprintf(stderr, "merynd: unknown policy %q\n", *policy)
		return 1
	}
	if *vcSpec != "" {
		vcs, err := parseVCs(*vcSpec)
		if err != nil {
			fmt.Fprintf(stderr, "merynd: %v\n", err)
			return 1
		}
		cfg.VCs = vcs
	}
	if *mode != "virtual" && *mode != "wall" {
		fmt.Fprintf(stderr, "merynd: unknown mode %q (want virtual or wall)\n", *mode)
		return 1
	}
	if *mode == "wall" && *speed <= 0 {
		fmt.Fprintf(stderr, "merynd: -speed must be positive, got %g\n", *speed)
		return 1
	}

	if _, ok := telemetry.ParseLevel(*logLevel); !ok {
		fmt.Fprintf(stderr, "merynd: unknown log level %q (want debug, info, warn or error)\n", *logLevel)
		return 1
	}
	logger := telemetry.NewLogger(stderr, telemetry.LogConfig{Level: *logLevel, JSON: *logJSON})
	reg := telemetry.NewRegistry()

	p, err := meryn.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "merynd:", err)
		return 1
	}
	sess, err := p.Open()
	if err != nil {
		fmt.Fprintln(stderr, "merynd:", err)
		return 1
	}

	var onMutate func()
	if *mode == "virtual" {
		onMutate = func() { sess.RunToSettle() }
	}

	var store *durable.Store
	if *stateDir != "" {
		store, err = durable.Open(*stateDir, durable.Meta{Seed: *seed, Policy: *policy})
		if err != nil {
			fmt.Fprintln(stderr, "merynd:", err)
			return 1
		}
		defer store.Close()
	}

	srv := server.New(sess, server.Config{
		OnMutate:    onMutate,
		Store:       store,
		MaxInFlight: *maxInfl,
		Logger:      logger,
		Registry:    reg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "merynd:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintln(stderr, "merynd:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "merynd listening on http://%s (mode=%s policy=%s seed=%d)\n", bound, *mode, *policy, *seed)
	logger.Info("listening", "addr", bound, "mode", *mode, "policy", *policy, "seed", *seed, "durable", store != nil)

	// Serve while recovering so /healthz can say so; ReadTimeout and
	// ReadHeaderTimeout bound slow or stalled request heads (Slowloris).
	// No WriteTimeout: /v1/events?follow=1 is a deliberately long-lived
	// stream; IdleTimeout reaps keep-alive connections instead.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadTimeout:       *httpTO,
		ReadHeaderTimeout: *httpTO,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	if store != nil {
		srv.SetState(server.StateRecovering)
	}
	go func() { errc <- httpSrv.Serve(ln) }()

	// Replay the journal through the session API; the same
	// deterministic engine rebuilds the pre-crash state, and the last
	// seal's digest must match it. The wall ticker starts only
	// afterwards, so recovery is deterministic in both modes.
	replayRecords := reg.Gauge("meryn_replay_records", "Journal records replayed at the last boot.")
	replaySeconds := reg.Gauge("meryn_replay_seconds", "Wall time the last boot spent replaying the journal.")
	replayRate := reg.Gauge("meryn_replay_records_per_second", "Replay throughput at the last boot.")
	if store != nil {
		if store.TornTail() {
			fmt.Fprintln(stdout, "merynd: dropped a torn final journal record (crash mid-write)")
			logger.Warn("journal tail torn", "action", "dropped final record")
		}
		recs, seal := store.Records(), store.LastCheckpoint()
		if len(recs) > 0 || seal != nil {
			span := telemetry.StartSpan(context.Background(), logger, "replay")
			stats, err := durable.Recover(sess, recs, seal, onMutate)
			elapsed := span.Finish(slog.Int("records", len(recs)), slog.Int("applied", stats.Applied))
			if err != nil {
				// Serving a state the journal cannot reproduce would
				// make the next crash lose it: refuse, still recovering.
				fmt.Fprintln(stderr, "merynd:", err)
				logger.Error("recovery refused", "err", err)
				_ = httpSrv.Close() // exiting anyway; nothing was served
				return 1
			}
			verified := "no seal to verify"
			if seal != nil {
				srv.SeedIDs(seal.NextID)
				verified = fmt.Sprintf("verified the seal after seq %d", seal.LastSeq)
			}
			rate := 0.0
			if secs := elapsed.Seconds(); secs > 0 {
				rate = float64(len(recs)) / secs
			}
			replayRecords.Set(float64(len(recs)))
			replaySeconds.Set(elapsed.Seconds())
			replayRate.Set(rate)
			fmt.Fprintf(stdout, "merynd: recovered %d records (%d applied, %d no-ops) to t=%.0fs, state digest %016x, %s\n",
				len(recs), stats.Applied, stats.Failed, sess.Now().Seconds(), sess.Digest(), verified)
			logger.Info("replay complete",
				"records", len(recs), "applied", stats.Applied, "noops", stats.Failed,
				"elapsed", elapsed, "records_per_sec", rate, "virtual_t_s", sess.Now().Seconds(),
				"seal", verified)
			// Seal the recovered state right away, so the next boot
			// checks all of this history, not just a prefix of it.
			if err := srv.Checkpoint(); err != nil {
				fmt.Fprintln(stderr, "merynd: post-recovery checkpoint:", err)
			}
		}
		srv.SetState(server.StateServing)
	}

	// Wall mode: a ticker maps elapsed wall time to virtual time,
	// resuming from the recovered virtual clock.
	stop := make(chan struct{})
	if *mode == "wall" {
		start := time.Now()
		base := sess.Now()
		go func() {
			ticker := time.NewTicker(250 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					target := base + meryn.Seconds(time.Since(start).Seconds()**speed)
					if target > sess.Now() {
						srv.Step(target)
					}
				}
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(stdout, "merynd: %s, draining\n", sig)
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "merynd:", err)
			return 1
		}
	}
	close(stop)
	// Graceful shutdown ladder: refuse new mutations, let in-flight
	// negotiations finish, then seal the final state so the next boot
	// checks the whole history against it.
	srv.SetState(server.StateDraining)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	if store != nil {
		if err := srv.Checkpoint(); err != nil {
			fmt.Fprintln(stderr, "merynd: final checkpoint:", err)
			return 1
		}
		fmt.Fprintln(stdout, "merynd: final snapshot written")
	}
	return 0
}
