// Command blessd serves BLESS deployment planning over net/rpc (the paper's
// gRPC front-end substituted with the standard library): clients describe a
// multi-tenant deployment — applications, quotas, workload — and blessd
// simulates it under BLESS (or a baseline system) and returns the projected
// per-client latencies, utilization, and isolated-quota baselines.
//
// Because the execution substrate is a virtual-time simulator, blessd is a
// what-if planning service: a 2-second GPU workload is evaluated in
// milliseconds, deterministically.
//
// Start the daemon:
//
//	blessd -listen :7600 -debug :7601
//
// Call it (see PlanRequest/PlanReply in this package):
//
//	client, _ := rpc.Dial("tcp", "localhost:7600")
//	var reply blessd.PlanReply
//	client.Call("Planner.Plan", req, &reply)
//
// A PlanRequest may carry a FaultConfig: the plan then runs under a seeded
// fault and churn plan (kernel faults, device stalls, client crashes and
// leaves) and the reply's Chaos field reports the degraded-mode accounting.
// The Planner.Admit RPC builds on it for dynamic admission — "can this
// tenant join the running deployment?" — by simulating the join mid-run and
// rejecting if the candidate cannot be placed or an incumbent's quota
// attainment would break (see AdmitRequest/AdmitReply).
//
// With -debug set, the daemon also serves live introspection over HTTP:
//
//	GET /debug/bless/metrics  streaming-metrics snapshot (plan and admission
//	                          counters, chaos_* fault/churn counters,
//	                          per-app latency histograms, §6.9 overhead
//	                          accounting of the latest BLESS plan)
//	GET /debug/bless/trace    Chrome trace-event JSON of the most recent
//	                          plan (load in Perfetto or chrome://tracing)
//	GET /debug/bless/invariants  invariant report of the most recent plan
//	                          (violations, quota attainment, bubble
//	                          accounting, determinism digest)
//	GET /debug/bless/prom     accumulated metrics (daemon registry merged
//	                          with the fleet view of every cluster plan) plus
//	                          per-tenant SLO series, Prometheus text format
//	GET /debug/bless/slo      per-tenant SLO attainment JSON, aggregated
//	                          across every plan served
//	GET /debug/bless/fleet    most recent fleet plan's state: per-device
//	                          load, tenant placements, control-plane
//	                          counters, determinism digest
//	GET /debug/bless/snapshot most recent Planner.Snapshot's raw canonical
//	                          bytes (download, restart, feed back through
//	                          Planner.Restore)
//	GET /debug/bless/serve    open serving deployment's live stats (offered/
//	                          admitted/shed, wait percentiles, per-decision
//	                          overhead vs the §6.9 budget, per-tenant digests;
//	                          with ServeOpen{Trace:true}, the recent
//	                          decision-event ring)
//	GET /debug/pprof/         Go runtime profiles (net/http/pprof)
//	GET /debug/vars           expvar JSON (memstats, cmdline)
//
// Multi-device plans (PlanRequest.GPUs > 1) run across a simulated GPU pool:
// the §4.2.2 controller places the tenants, every device runs observed, and
// the fleet-merged metrics and SLO attainment land on the endpoints above.
//
// The fleet control plane is exposed through three more RPCs:
// Planner.FleetRoute answers the placement-only question (which device each
// tenant would land on under a routing policy), Planner.FleetPlan simulates
// a whole fleet scenario (heterogeneous pool, live migration, rebalancing,
// autoscaling, device crashes) under the fleet invariant checker, and
// Planner.FleetMigrate is the migration what-if variant (see
// FleetRouteRequest/FleetPlanRequest).
//
// Fleet runs snapshot and restore across process boundaries:
// Planner.Snapshot cuts a scenario at a virtual-time barrier and returns its
// canonical, digest-sealed encoding; Planner.Restore replays the embedded
// scenario to the barrier, proves the replayed state byte-identical to the
// snapshot, and continues the run to completion — digests match the
// uninterrupted run bit for bit (see SnapshotRequest/RestoreRequest).
//
// Beyond per-plan what-ifs, blessd also runs a sustained-load serving path:
// Planner.ServeOpen opens a deployment (placement admission over the pool,
// one deterministic admission lane per tenant), Planner.Serve decides one
// request per call at line rate, inline on the RPC goroutine under the
// tenant's lock (admit, or shed with a retry-after when the tenant's virtual
// queueing delay exceeds its bound), and Planner.ServeStats /
// Planner.ServeClose report the accounting: throughput, wait percentiles,
// shed counts, measured per-decision overhead against the §6.9 budget, and
// the determinism digest that is bit-identical between serial and
// pipelined-concurrent clients (wire types in internal/serveapi). cmd/blessload is the matching
// closed-loop generator:
//
//	blessd -listen :7600 &
//	blessload -addr localhost:7600 -rate 4000 -steps 4 -verify
package main

import (
	"expvar"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"net/rpc"

	"bless/cmd/blessd/internal/planner"
)

func main() {
	listen := flag.String("listen", ":7600", "TCP address to serve RPC on")
	debug := flag.String("debug", "", "HTTP address for debug endpoints (empty = disabled)")
	flag.Parse()

	p := planner.New()
	srv := rpc.NewServer()
	if err := srv.RegisterName("Planner", p.RPC()); err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}

	if *debug != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/bless/metrics", p.ServeMetrics)
		mux.HandleFunc("/debug/bless/trace", p.ServeTrace)
		mux.HandleFunc("/debug/bless/invariants", p.ServeInvariants)
		mux.HandleFunc("/debug/bless/prom", p.ServeProm)
		mux.HandleFunc("/debug/bless/slo", p.ServeSLO)
		mux.HandleFunc("/debug/bless/fleet", p.ServeFleet)
		mux.HandleFunc("/debug/bless/snapshot", p.ServeSnapshot)
		mux.HandleFunc("/debug/bless/serve", p.ServeServe)
		// Standard Go introspection, kept off the default mux so the RPC
		// surface stays clean: runtime profiles and expvar.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
		dl, err := net.Listen("tcp", *debug)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("blessd: debug endpoints on http://%s/debug/bless/{metrics,trace,invariants,prom,slo} and /debug/{pprof,vars}", dl.Addr())
		go func() {
			if err := http.Serve(dl, mux); err != nil {
				log.Printf("blessd: debug server: %v", err)
			}
		}()
	}

	log.Printf("blessd: planning service on %s", l.Addr())
	srv.Accept(l)
}
