// Package serveapi defines the wire types of blessd's sustained-load
// serving surface (Planner.ServeOpen / Serve / ServeStats / ServeClose),
// shared between the daemon's planner and RPC clients like blessload. The
// types are pure data — all behavior lives in the planner.
package serveapi

// ServeTenant declares one tenant of an open serving deployment.
type ServeTenant struct {
	// Name identifies the tenant on the Serve path.
	Name string
	// App is a built-in application name (bless.Models).
	App string
	// Quota is the provisioned GPU fraction in (0, 1].
	Quota float64
	// RateRPS is the tenant's nominal offered rate (requests per virtual
	// second); request seq arrives at seq/RateRPS.
	RateRPS float64
	// BoundMS caps the virtual queueing delay an admitted request may see;
	// beyond it requests shed. 0 defaults to 4x the tenant's iso service
	// time.
	BoundMS float64
}

// ServeOpenRequest opens a serving deployment.
type ServeOpenRequest struct {
	// Tenants are the deployment's tenants.
	Tenants []ServeTenant
	// GPUs is the pool size for the placement admission pass (default 1).
	GPUs int
	// GPUSMs overrides the per-device SM count (default 108).
	GPUSMs int
	// Workers is kept for wire compatibility.
	//
	// Deprecated: ignored; each Serve call decides on its own RPC goroutine.
	Workers int
	// BatchMax is kept for wire compatibility.
	//
	// Deprecated: ignored; there is no batching window.
	BatchMax int
	// Trace records per-decision serve events into a bounded ring exposed
	// on /debug/bless/serve (off for the zero-alloc fast path).
	Trace bool
}

// ServeTenantInfo reports one tenant's derived admission parameters.
type ServeTenantInfo struct {
	Name string
	// Device is the host device index from the placement pass.
	Device int
	// Worker is kept for wire compatibility.
	//
	// Deprecated: always 0; there are no intake workers.
	Worker int
	// IntervalNS, ServiceNS and BoundNS are the lane parameters: nominal
	// inter-arrival gap, bubble-free iso cost at the tenant's quota, and
	// the shed bound (virtual ns).
	IntervalNS, ServiceNS, BoundNS int64
}

// ServeOpenReply reports the opened deployment.
type ServeOpenReply struct {
	Tenants []ServeTenantInfo
	// Workers is kept for wire compatibility.
	//
	// Deprecated: always 0; there are no intake workers.
	Workers int
	GPUs    int
}

// ServeRequest is one admission request. Seq is the per-tenant request
// sequence number; each tenant's stream is decided in seq order (0,1,2,…).
// A seq that arrives ahead of its tenant's cursor waits for its
// predecessors; one already decided is an error.
type ServeRequest struct {
	Tenant string
	Seq    int
}

// ServeReply is the admission decision.
type ServeReply struct {
	Seq      int
	Admitted bool
	// WaitNS is the virtual queueing delay; ServiceNS the charged iso cost
	// (admitted only); RetryAfterNS how long past the bound the lane runs
	// (shed only).
	WaitNS, ServiceNS, RetryAfterNS int64
}

// ServeTenantStats is one tenant's accounting in ServeStatsReply.
type ServeTenantStats struct {
	Name                    string
	Offered, Admitted, Shed uint64
	// Digest is the tenant's decision-chain digest (hex).
	Digest string
	// HeadroomNS is the lane's remaining bound at its current backlog;
	// negative means the next on-time arrival sheds.
	HeadroomNS int64
}

// ServeStatsReply is the open deployment's accounting.
type ServeStatsReply struct {
	Open                    bool
	Offered, Admitted, Shed uint64
	// Batches counts tenant-lock acquisitions that decided; BatchMeanSize
	// is decisions per acquisition, above 1 only when a call released
	// successors parked ahead of order.
	Batches       uint64
	BatchMeanSize float64
	// Digest is the cross-tenant XOR fold of per-tenant decision digests —
	// identical between serial and concurrent intake of the same per-tenant
	// streams.
	Digest string
	// WaitMeanNS/WaitP50NS/WaitP99NS summarize admitted virtual queueing
	// delay.
	WaitMeanNS, WaitP50NS, WaitP99NS int64
	// DecisionMeanNS is the measured wall-clock scheduler cost per decision
	// under the tenant lock; BudgetNS is the §6.9 budget for one request
	// (SchedPerKernel x the deployment's mean kernels per request); a
	// sustained DecisionMeanNS above BudgetNS means the front end, not the
	// GPU, is the bottleneck.
	DecisionMeanNS float64
	BudgetNS       int64
	WithinBudget   bool
	PerTenant      []ServeTenantStats
	// Violations are serve-invariant breaches (lost requests, in-quota
	// shedding); empty on a healthy run.
	Violations []string
}

// ServeCloseReply carries the final stats of the closed deployment.
type ServeCloseReply struct {
	Stats ServeStatsReply
}
