// Package jobspec defines the JSON-serializable description of one stencil
// simulation job — the single struct the CLI drivers (stencilsim, faultsim)
// and the stencilserve HTTP service all build jobs from.
//
// A Spec is the user-facing, wire-format view of stencil.Config plus the run
// length and an optional fault scenario. It supports three operations the
// serving layer depends on:
//
//   - Normalize: fold every "zero means default" field to its explicit
//     default and canonicalize enumerated spellings ("all" → "kernel",
//     "96" → "96x96x96"), so two specs that describe the same job become
//     structurally equal.
//   - Hash: the canonical content address of the whole job (SHA-256 over the
//     normalized spec's canonical JSON). Because the simulation engine is
//     deterministic, Hash fully determines the job's result bytes — which is
//     what makes stencilserve's whole-result cache correct by construction.
//   - SetupHash: the content address of only the setup-phase inputs
//     (partition + placement + specialization), shared by jobs that differ
//     only in scenario, iteration count, or reliability options. It keys the
//     serving layer's setup cache (cached phase-2 placements injected via
//     stencil.Config.PresetPlacement).
package jobspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	stencil "github.com/nodeaware/stencil"
	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/machine"
)

// Spec is one job description. The zero value is not runnable; start from
// Default() (stencilsim's defaults) or fill the required fields (Nodes,
// RanksPerNode, Domain, Radius, Quantities) and call Normalize.
type Spec struct {
	// Topology.
	Nodes         int    `json:"nodes"`
	RanksPerNode  int    `json:"ranks_per_node"`
	Sockets       int    `json:"sockets,omitempty"`         // 0 → 2 (Summit)
	GPUsPerSocket int    `json:"gpus_per_socket,omitempty"` // 0 → 3 (Summit)
	Domain        string `json:"domain"`                    // "N" or "XxYxZ"

	// Stencil shape.
	Radius       int `json:"radius"`
	Quantities   int `json:"quantities"`
	ElemSize     int `json:"elem_size,omitempty"`    // 0 → 4
	Neighborhood int `json:"neighborhood,omitempty"` // 0 → 26 (6 with FaceOnly)

	// Method selection.
	Caps               string `json:"caps,omitempty"` // remote|colo|peer|kernel; "" or "all" → kernel
	CUDAAware          bool   `json:"cuda_aware,omitempty"`
	TrivialPlacement   bool   `json:"trivial_placement,omitempty"`
	AggregateRemote    bool   `json:"aggregate_remote,omitempty"`
	NoOverlap          bool   `json:"no_overlap,omitempty"`
	Overlap            bool   `json:"overlap,omitempty"`
	EmpiricalPlacement bool   `json:"empirical_placement,omitempty"`
	OpenBoundary       bool   `json:"open_boundary,omitempty"`
	FaceOnly           bool   `json:"face_only,omitempty"` // folded into Neighborhood by Normalize
	FairnessHorizon    int    `json:"fairness_horizon,omitempty"`

	// Run shape.
	Iters  int  `json:"iters,omitempty"` // 0 → 10
	Verify bool `json:"verify,omitempty"`

	// Resilience options.
	Adaptive        bool    `json:"adaptive,omitempty"`
	AdaptPlacement  bool    `json:"adapt_placement,omitempty"`
	CheckpointEvery int     `json:"checkpoint_every,omitempty"`
	SendTimeout     float64 `json:"send_timeout,omitempty"`
	SendRetries     int     `json:"send_retries,omitempty"` // 0 → 8
	Reliable        bool    `json:"reliable,omitempty"`
	VerifyExchange  bool    `json:"verify_exchange,omitempty"`
	QuarantineTicks int     `json:"quarantine_ticks,omitempty"`

	// Scenario is an optional scripted fault schedule (see internal/fault
	// for the JSON shape). Validate surfaces scenario errors before a job is
	// accepted.
	Scenario *fault.Scenario `json:"scenario,omitempty"`

	// Serving metadata (stencilserve). Neither field changes what the engine
	// computes, so both are excluded from Canonical/Hash/SetupHash: a job with
	// a deadline that completes in time produces bytes identical to the same
	// job without one, and fragmenting the content-addressed caches on who
	// submitted a job or how patient they are would only lower hit rates.
	//
	// Tenant names the submitting tenant when no X-Tenant header is set (the
	// header wins). DeadlineSeconds is a wall-clock budget for the whole job
	// (queue wait + run), measured from acknowledgment; the serving layer
	// preempts an over-deadline run at the engine's next iteration safe point
	// and fails the job without caching anything. 0 means no deadline.
	Tenant          string  `json:"tenant,omitempty"`
	DeadlineSeconds float64 `json:"deadline_s,omitempty"`
}

// Default returns stencilsim's default job: one Summit node, six ranks, the
// paper's 1363³ domain, radius 2, four quantities, fully specialized.
func Default() *Spec {
	return &Spec{
		Nodes:        1,
		RanksPerNode: 6,
		Domain:       "1363",
		Radius:       2,
		Quantities:   4,
		Caps:         "kernel",
		Iters:        10,
	}
}

// ParseDomain parses a domain extent: "N" for a cube or "XxYxZ".
func ParseDomain(s string) (stencil.Dim3, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	switch len(parts) {
	case 1:
		n, err := strconv.Atoi(parts[0])
		if err != nil || n < 1 {
			return stencil.Dim3{}, fmt.Errorf("bad domain %q", s)
		}
		return stencil.Dim3{X: n, Y: n, Z: n}, nil
	case 3:
		var d [3]int
		for i, p := range parts {
			n, err := strconv.Atoi(p)
			if err != nil || n < 1 {
				return stencil.Dim3{}, fmt.Errorf("bad domain %q", s)
			}
			d[i] = n
		}
		return stencil.Dim3{X: d[0], Y: d[1], Z: d[2]}, nil
	}
	return stencil.Dim3{}, fmt.Errorf("domain must be N or XxYxZ, got %q", s)
}

// FormatDomain renders a domain extent in the canonical "XxYxZ" form, so
// specs written as "96" and "96x96x96" normalize identically.
func FormatDomain(d stencil.Dim3) string {
	return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z)
}

// ParseCaps parses a capability ladder rung name.
func ParseCaps(s string) (stencil.Capabilities, error) {
	switch strings.ToLower(s) {
	case "remote":
		return stencil.CapsRemote(), nil
	case "colo":
		return stencil.CapsColo(), nil
	case "peer":
		return stencil.CapsPeer(), nil
	case "kernel", "all", "":
		return stencil.CapsAll(), nil
	}
	return stencil.Capabilities{}, fmt.Errorf("unknown caps %q (want remote|colo|peer|kernel)", s)
}

// Normalize folds defaults into explicit values and canonicalizes enumerated
// spellings, in place. After Normalize, two specs describing the same job are
// structurally (and canonically-JSON) equal. It returns the spec for
// chaining and an error when a field cannot be canonicalized.
func (s *Spec) Normalize() error {
	if s.Nodes == 0 {
		s.Nodes = 1
	}
	if s.Sockets == 0 {
		s.Sockets = 2
	}
	if s.GPUsPerSocket == 0 {
		s.GPUsPerSocket = 3
	}
	dim, err := ParseDomain(s.Domain)
	if err != nil {
		return err
	}
	s.Domain = FormatDomain(dim)
	if s.ElemSize == 0 {
		s.ElemSize = 4
	}
	// FaceOnly is shorthand for the 6-direction neighborhood; 0 means the
	// full 26-direction set. Both fold into an explicit Neighborhood.
	if s.FaceOnly {
		if s.Neighborhood != 0 && s.Neighborhood != 6 {
			return fmt.Errorf("jobspec: face_only contradicts neighborhood %d", s.Neighborhood)
		}
		s.Neighborhood = 6
		s.FaceOnly = false
	}
	if s.Neighborhood == 0 {
		s.Neighborhood = 26
	}
	caps := strings.ToLower(s.Caps)
	switch caps {
	case "", "all":
		caps = "kernel"
	case "remote", "colo", "peer", "kernel":
	default:
		return fmt.Errorf("jobspec: unknown caps %q (want remote|colo|peer|kernel)", s.Caps)
	}
	s.Caps = caps
	if s.Iters == 0 {
		s.Iters = 10
	}
	// Both the MPI retry path and the reliable envelope treat 0 as 8
	// attempts, so the explicit default is behaviorally identical.
	if s.SendRetries == 0 {
		s.SendRetries = 8
	}
	// An empty scenario is the same job as no scenario; its Seed would
	// otherwise change the hash without changing any behavior.
	if s.Scenario != nil && len(s.Scenario.Events) == 0 {
		s.Scenario = nil
	}
	return nil
}

// Validate normalizes a copy and checks everything that can be checked
// without building the engine: field ranges, the scenario's static rules,
// and the stencil.Config invariants.
func (s *Spec) Validate() error {
	c := *s
	if err := c.Normalize(); err != nil {
		return err
	}
	if c.Nodes < 1 || c.RanksPerNode < 1 {
		return fmt.Errorf("jobspec: need at least one node and rank")
	}
	if c.Sockets < 1 || c.GPUsPerSocket < 1 {
		return fmt.Errorf("jobspec: need at least one socket and GPU per socket")
	}
	gpus := c.Sockets * c.GPUsPerSocket
	if gpus%c.RanksPerNode != 0 {
		return fmt.Errorf("jobspec: %d GPUs/node not divisible by %d ranks/node", gpus, c.RanksPerNode)
	}
	switch c.Neighborhood {
	case 6, 18, 26:
	default:
		return fmt.Errorf("jobspec: neighborhood %d (want 6, 18, or 26)", c.Neighborhood)
	}
	if c.Iters < 1 {
		return fmt.Errorf("jobspec: iters %d < 1", c.Iters)
	}
	if c.SendTimeout < 0 {
		return fmt.Errorf("jobspec: negative send_timeout %g", c.SendTimeout)
	}
	if c.DeadlineSeconds < 0 {
		return fmt.Errorf("jobspec: negative deadline_s %g", c.DeadlineSeconds)
	}
	if err := ValidTenant(c.Tenant); err != nil {
		return err
	}
	// The overlap pipeline's compatibility matrix (mirrors exchange.New) so
	// bad specs are rejected at admission, not at engine-build time.
	if c.Overlap {
		switch {
		case c.NoOverlap:
			return fmt.Errorf("jobspec: overlap contradicts no_overlap")
		case c.AggregateRemote:
			return fmt.Errorf("jobspec: overlap is incompatible with aggregate_remote")
		case c.AdaptPlacement:
			return fmt.Errorf("jobspec: overlap is incompatible with adapt_placement")
		case c.CUDAAware:
			return fmt.Errorf("jobspec: overlap is incompatible with cuda_aware")
		}
	}
	if c.Scenario != nil {
		if err := c.Scenario.Validate(); err != nil {
			return err
		}
		if c.Scenario.HasFatal() && c.CheckpointEvery < 1 {
			return fmt.Errorf("jobspec: scenario %q contains permanent-loss events; set checkpoint_every > 0", c.Scenario.Name)
		}
	}
	cfg, err := c.Config()
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// Config builds the stencil.Config the spec describes. The spec should be
// Normalized (Config normalizes a copy itself, so calling it on a raw spec
// is safe).
func (s *Spec) Config() (stencil.Config, error) {
	c := *s
	if err := c.Normalize(); err != nil {
		return stencil.Config{}, err
	}
	dim, err := ParseDomain(c.Domain)
	if err != nil {
		return stencil.Config{}, err
	}
	caps, err := ParseCaps(c.Caps)
	if err != nil {
		return stencil.Config{}, err
	}
	nodeCfg := machine.NodeConfig{Sockets: c.Sockets, GPUsPerSocket: c.GPUsPerSocket}
	return stencil.Config{
		Nodes:              c.Nodes,
		RanksPerNode:       c.RanksPerNode,
		Domain:             dim,
		Radius:             c.Radius,
		Quantities:         c.Quantities,
		ElemSize:           c.ElemSize,
		Capabilities:       caps,
		CUDAAware:          c.CUDAAware,
		TrivialPlacement:   c.TrivialPlacement,
		RealData:           c.Verify,
		Neighborhood:       c.Neighborhood,
		OpenBoundary:       c.OpenBoundary,
		AggregateRemote:    c.AggregateRemote,
		NoOverlap:          c.NoOverlap,
		Overlap:            c.Overlap,
		EmpiricalPlacement: c.EmpiricalPlacement,
		FairnessHorizon:    c.FairnessHorizon,
		NodeConfig:         &nodeCfg,
		Fault:              c.Scenario,
		Adaptive:           c.Adaptive,
		AdaptPlacement:     c.AdaptPlacement,
		CheckpointEvery:    c.CheckpointEvery,
		SendTimeout:        c.SendTimeout,
		SendRetries:        c.SendRetries,
		Reliable:           c.Reliable,
		VerifyExchange:     c.VerifyExchange,
		QuarantineTicks:    c.QuarantineTicks,
	}, nil
}

// canonicalJSON marshals v with encoding/json (struct field order is fixed,
// map keys sort), the canonical byte form both hashes are computed over.
func canonicalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("jobspec: canonical marshal: %v", err))
	}
	return b
}

// ValidTenant checks a tenant name: empty is allowed (the serving layer
// substitutes "anonymous"), otherwise up to 64 characters drawn from
// [A-Za-z0-9._-]. The charset keeps tenant names safe as journal fields,
// metric label values, and query parameters.
func ValidTenant(tenant string) error {
	if len(tenant) > 64 {
		return fmt.Errorf("jobspec: tenant name longer than 64 characters")
	}
	for _, r := range tenant {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("jobspec: tenant %q contains %q (want [A-Za-z0-9._-])", tenant, r)
		}
	}
	return nil
}

// Canonical returns the canonical JSON of the normalized spec: the bytes two
// specs describing the same job agree on, and the preimage of Hash. Serving
// metadata (Tenant, DeadlineSeconds) is cleared first: it never reaches the
// engine, so specs differing only in it are the same job.
func (s *Spec) Canonical() ([]byte, error) {
	c := *s
	if err := c.Normalize(); err != nil {
		return nil, err
	}
	c.Tenant = ""
	c.DeadlineSeconds = 0
	return canonicalJSON(&c), nil
}

// Hash returns the job's content address: hex SHA-256 over Canonical().
// Because the engine is deterministic, specs with equal hashes produce
// byte-identical results — the correctness argument of the result cache.
func (s *Spec) Hash() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// setupKey is the subset of a normalized spec that determines the setup
// phases (partition, placement, specialization inputs): jobs equal under
// SetupHash run the same QAP and produce identical phase-2 assignments, no
// matter how their scenarios, iteration counts, or reliability options
// differ.
type setupKey struct {
	Nodes            int    `json:"nodes"`
	RanksPerNode     int    `json:"ranks_per_node"`
	Sockets          int    `json:"sockets"`
	GPUsPerSocket    int    `json:"gpus_per_socket"`
	Domain           string `json:"domain"`
	Radius           int    `json:"radius"`
	Quantities       int    `json:"quantities"`
	ElemSize         int    `json:"elem_size"`
	Neighborhood     int    `json:"neighborhood"`
	TrivialPlacement bool   `json:"trivial_placement"`
	OpenBoundary     bool   `json:"open_boundary"`
	Empirical        bool   `json:"empirical_placement"`
}

// SetupHash returns the content address of the setup-phase inputs only; it
// keys the serving layer's placement (setup) cache.
func (s *Spec) SetupHash() (string, error) {
	c := *s
	if err := c.Normalize(); err != nil {
		return "", err
	}
	sum := sha256.Sum256(canonicalJSON(&setupKey{
		Nodes:            c.Nodes,
		RanksPerNode:     c.RanksPerNode,
		Sockets:          c.Sockets,
		GPUsPerSocket:    c.GPUsPerSocket,
		Domain:           c.Domain,
		Radius:           c.Radius,
		Quantities:       c.Quantities,
		ElemSize:         c.ElemSize,
		Neighborhood:     c.Neighborhood,
		TrivialPlacement: c.TrivialPlacement,
		OpenBoundary:     c.OpenBoundary,
		Empirical:        c.EmpiricalPlacement,
	}))
	return hex.EncodeToString(sum[:]), nil
}

// CacheableSetup reports whether the setup cache may skip this spec's
// phase-2 solve. EmpiricalPlacement jobs are excluded: their placement
// microbenchmark advances the virtual clock, so skipping it would change
// every downstream timestamp and break byte-identical result caching.
func (s *Spec) CacheableSetup() bool { return !s.EmpiricalPlacement }

// ---- Flag binding (the shared CLI scaffolding) ----

// BindTopologyFlags registers the cluster and stencil-shape flags, using the
// spec's current values as defaults.
func (s *Spec) BindTopologyFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.Nodes, "nodes", s.Nodes, "number of nodes")
	fs.IntVar(&s.RanksPerNode, "ranks", s.RanksPerNode, "MPI ranks per node")
	fs.StringVar(&s.Domain, "domain", s.Domain, "domain extent: N for a cube or XxYxZ")
	fs.IntVar(&s.Radius, "radius", s.Radius, "stencil radius (halo width)")
	fs.IntVar(&s.Quantities, "quantities", s.Quantities, "grid quantities")
	fs.IntVar(&s.Sockets, "sockets", s.Sockets, "CPU sockets per node")
	fs.IntVar(&s.GPUsPerSocket, "gpus-per-socket", s.GPUsPerSocket, "GPUs per socket")
}

// BindMethodFlags registers the transfer-method and placement flags.
func (s *Spec) BindMethodFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Caps, "caps", s.Caps, "capability ladder rung: remote, colo, peer, kernel")
	fs.BoolVar(&s.CUDAAware, "cuda-aware", s.CUDAAware, "use CUDA-aware MPI for remote messages")
	fs.BoolVar(&s.TrivialPlacement, "trivial-placement", s.TrivialPlacement, "disable node-aware placement")
	fs.BoolVar(&s.AggregateRemote, "aggregate", s.AggregateRemote, "aggregate inter-node messages per rank pair")
	fs.BoolVar(&s.NoOverlap, "no-overlap", s.NoOverlap, "serialize transfers (ablation)")
	fs.BoolVar(&s.Overlap, "overlap", s.Overlap, "overlap interior compute with halo exchange (per-quadrant readiness)")
	fs.BoolVar(&s.EmpiricalPlacement, "empirical-placement", s.EmpiricalPlacement, "measure bandwidths for placement")
	fs.BoolVar(&s.OpenBoundary, "open-boundary", s.OpenBoundary, "non-periodic boundaries")
	fs.BoolVar(&s.FaceOnly, "face-only", s.FaceOnly, "exchange only the 6 face neighbors")
}

// BindRunFlags registers the run-length flag.
func (s *Spec) BindRunFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.Iters, "iters", s.Iters, "exchange iterations (paper: 30)")
}

// Main is the shared entry-point scaffolding of every cmd driver: run with
// the process arguments and stdout, report the error, exit nonzero.
func Main(run func(args []string, out io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
