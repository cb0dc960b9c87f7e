package planner

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// clusterRequest is a 3-GPU deployment whose quotas force the controller to
// spread tenants: 0.6+0.6 cannot share a device.
func clusterRequest() PlanRequest {
	return PlanRequest{
		GPUs: 3,
		Clients: []ClientPlan{
			{App: "vgg11", Quota: 0.6, ThinkMS: 2, SLOTargetMS: 100},
			{App: "resnet50", Quota: 0.6, ThinkMS: 2, SLOTargetMS: 100},
			{App: "bert", Quota: 0.6, ThinkMS: 2, SLOTargetMS: 200},
			{App: "resnet101", Quota: 0.3, ThinkMS: 2},
		},
		HorizonMS: 100,
	}
}

func TestPlanCluster(t *testing.T) {
	p := New()
	var reply PlanReply
	if err := p.Plan(clusterRequest(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.GPUs != 3 {
		t.Errorf("reply.GPUs = %d, want 3", reply.GPUs)
	}
	if len(reply.Placement) != 4 {
		t.Fatalf("placement for %d clients, want 4", len(reply.Placement))
	}
	hosts := map[int]bool{}
	for ai, gi := range reply.Placement {
		if gi < 0 || gi >= 3 {
			t.Errorf("client %d placed on gpu %d", ai, gi)
		}
		hosts[gi] = true
	}
	// Three 0.6 quotas cannot co-locate: the pool must actually be used.
	if len(hosts) < 3 {
		t.Errorf("placement %v uses %d devices, want 3", reply.Placement, len(hosts))
	}
	for _, c := range reply.PerClient {
		if c.Completed < 2 {
			t.Errorf("%s completed only %d requests", c.App, c.Completed)
		}
	}
	if reply.Utilization <= 0 {
		t.Error("no pool utilization reported")
	}
}

// TestPlanClusterHonoursRequests: a multi-GPU plan bounds each client's
// requests exactly as the single-device plan does — a closed-loop client
// completes Requests, not Requests+1, and a burst client completes its
// burst.
func TestPlanClusterHonoursRequests(t *testing.T) {
	req := clusterRequest()
	for i := range req.Clients {
		req.Clients[i].ThinkMS = 1
		req.Clients[i].Requests = 3
	}
	req.Clients[3].Workload = "burst"
	req.Clients[3].Requests = 2
	var reply PlanReply
	if err := New().Plan(req, &reply); err != nil {
		t.Fatal(err)
	}
	for i, c := range reply.PerClient {
		want := req.Clients[i].Requests
		if c.Completed != want {
			t.Errorf("client %d (%s, %s): completed %d, want %d",
				i, c.App, req.Clients[i].Workload, c.Completed, want)
		}
	}
}

func TestPlanClusterRejectsFaults(t *testing.T) {
	req := clusterRequest()
	req.Faults = &FaultConfig{Seed: 1, KernelFaultRate: 0.01}
	var reply PlanReply
	if err := New().Plan(req, &reply); err == nil {
		t.Error("cluster plan with faults accepted")
	}
}

// TestClusterDebugEndpoints drives a multi-device plan and checks that the
// fleet-aggregated views land on the daemon's prom and slo endpoints.
func TestClusterDebugEndpoints(t *testing.T) {
	p := New()

	// Before any plan: prom serves (possibly empty) exposition, slo serves
	// an empty tenant list.
	rec := httptest.NewRecorder()
	p.ServeProm(rec, nil)
	if rec.Code != 200 {
		t.Fatalf("prom status %d before any plan", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Errorf("prom content-type %q", got)
	}

	var reply PlanReply
	if err := p.Plan(clusterRequest(), &reply); err != nil {
		t.Fatal(err)
	}

	// Prometheus exposition: fleet-merged counters plus per-tenant SLO
	// series with tenant labels.
	rec = httptest.NewRecorder()
	p.ServeProm(rec, nil)
	body := rec.Body.String()
	for _, want := range []string{
		"bless_requests_completed_total",
		"bless_latency_request_ns",
		"bless_obs_events_total",
		`bless_slo_attainment_pct{tenant="vgg11"}`,
		`bless_slo_target_ns{tenant="bert"}`,
		"bless_plans_cluster",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	// SLO JSON: one entry per tenant, attainment populated for targeted
	// tenants, aggregated across the whole cluster run.
	rec = httptest.NewRecorder()
	p.ServeSLO(rec, nil)
	if rec.Code != 200 {
		t.Fatalf("slo status %d after a plan", rec.Code)
	}
	var snap struct {
		Tenants []struct {
			Tenant     string  `json:"tenant"`
			TargetNS   int64   `json:"target_ns"`
			Completed  int64   `json:"completed"`
			Attainment float64 `json:"attainment_pct"`
			P99NS      int64   `json:"p99_ns"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("slo not JSON: %v", err)
	}
	tenants := snap.Tenants
	if len(tenants) != 4 {
		t.Fatalf("%d SLO tenants, want 4", len(tenants))
	}
	byName := map[string]int{}
	for i, tn := range tenants {
		byName[tn.Tenant] = i
		if tn.Completed < 2 {
			t.Errorf("tenant %s completed %d", tn.Tenant, tn.Completed)
		}
		if tn.P99NS <= 0 {
			t.Errorf("tenant %s has no latency quantiles", tn.Tenant)
		}
	}
	for _, name := range []string{"vgg11", "resnet50", "bert", "resnet101"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("no SLO entry for %s", name)
		}
	}
	// 100ms targets over a 100ms horizon with millisecond-scale service
	// times: the targeted tenants should attain their SLO.
	if got := tenants[byName["vgg11"]].Attainment; got != 100 {
		t.Errorf("vgg11 attainment %.2f%%, want 100", got)
	}
	if got := tenants[byName["resnet101"]].TargetNS; got != 0 {
		t.Errorf("untargeted resnet101 has target %d", got)
	}

	// The cluster trace replaces the last single-device trace: lanes carry
	// device prefixes.
	rec = httptest.NewRecorder()
	p.ServeTrace(rec, nil)
	if rec.Code != 200 {
		t.Fatalf("trace status %d after cluster plan", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"gpu0/`) {
		t.Error("cluster trace has no device-prefixed lanes")
	}
}

// TestSingleDevicePlanFeedsSLO checks the single-device path reports into the
// same accumulated SLO tracker and prom exposition as cluster plans.
func TestSingleDevicePlanFeedsSLO(t *testing.T) {
	p := New()
	var reply PlanReply
	if err := p.Plan(PlanRequest{
		Clients: []ClientPlan{
			{App: "vgg11", Quota: 0.5, Workload: "burst", Requests: 2, SLOTargetMS: 500},
			{App: "resnet50", Quota: 0.5, Workload: "burst", Requests: 2},
		},
		HorizonMS: 200,
	}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.GPUs != 0 {
		t.Errorf("single-device reply.GPUs = %d, want 0", reply.GPUs)
	}

	rec := httptest.NewRecorder()
	p.ServeSLO(rec, nil)
	var snap struct {
		Tenants []struct {
			Tenant    string `json:"tenant"`
			Completed int64  `json:"completed"`
			Attained  int64  `json:"attained"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("slo not JSON: %v", err)
	}
	tenants := snap.Tenants
	if len(tenants) != 2 {
		t.Fatalf("%d SLO tenants after single-device plan, want 2", len(tenants))
	}
	for _, tn := range tenants {
		if tn.Completed != 2 {
			t.Errorf("tenant %s completed %d, want 2", tn.Tenant, tn.Completed)
		}
	}

	// The plan's tracing self-accounting is on the exposition too.
	rec = httptest.NewRecorder()
	p.ServeProm(rec, nil)
	for _, want := range []string{"bless_obs_events_total", "bless_obs_publish_wall_ns", "bless_obs_events_dropped_total"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
}
