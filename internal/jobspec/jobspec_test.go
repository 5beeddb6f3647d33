package jobspec

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/nodeaware/stencil/internal/fault"
)

func mustHash(t *testing.T, s *Spec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustSetupHash(t *testing.T, s *Spec) string {
	t.Helper()
	h, err := s.SetupHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// Specs that spell the same job differently must hash identically: explicit
// defaults vs zero values, "N" vs "XxYxZ" domains, "all" vs "kernel" caps,
// face_only vs neighborhood 6, and JSON field order.
func TestHashCanonicalization(t *testing.T) {
	base := &Spec{Nodes: 1, RanksPerNode: 6, Domain: "96", Radius: 2, Quantities: 4}
	want := mustHash(t, base)

	equivalents := []*Spec{
		{Nodes: 1, RanksPerNode: 6, Domain: "96x96x96", Radius: 2, Quantities: 4},
		{Nodes: 1, RanksPerNode: 6, Domain: "96", Radius: 2, Quantities: 4,
			ElemSize: 4, Neighborhood: 26, Caps: "kernel", Iters: 10, SendRetries: 8},
		{Nodes: 1, RanksPerNode: 6, Domain: "96", Radius: 2, Quantities: 4, Caps: "all"},
		{Nodes: 1, RanksPerNode: 6, Domain: "96", Radius: 2, Quantities: 4,
			Sockets: 2, GPUsPerSocket: 3},
		{Nodes: 1, RanksPerNode: 6, Domain: "96", Radius: 2, Quantities: 4,
			Scenario: &fault.Scenario{Name: "empty", Seed: 7}}, // no events → no scenario
	}
	for i, eq := range equivalents {
		if got := mustHash(t, eq); got != want {
			cb, _ := base.Canonical()
			ce, _ := eq.Canonical()
			t.Errorf("equivalent %d hashes differently:\n base %s\n spec %s", i, cb, ce)
		}
	}

	faceOnly := &Spec{Nodes: 1, RanksPerNode: 6, Domain: "96", Radius: 2, Quantities: 4, FaceOnly: true}
	neigh6 := &Spec{Nodes: 1, RanksPerNode: 6, Domain: "96", Radius: 2, Quantities: 4, Neighborhood: 6}
	if mustHash(t, faceOnly) != mustHash(t, neigh6) {
		t.Error("face_only and neighborhood 6 hash differently")
	}
	if mustHash(t, faceOnly) == want {
		t.Error("face_only did not change the hash vs the full neighborhood")
	}
}

// Reordering fields in the wire JSON must not change the hash: the canonical
// form is the marshal of the normalized struct, not the submitted bytes.
func TestHashIgnoresWireFieldOrder(t *testing.T) {
	a := `{"nodes": 2, "ranks_per_node": 2, "domain": "48", "radius": 1, "quantities": 2, "caps": "peer"}`
	b := `{"caps": "peer", "quantities": 2, "radius": 1, "domain": "48x48x48", "ranks_per_node": 2, "nodes": 2}`
	var sa, sb Spec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	if mustHash(t, &sa) != mustHash(t, &sb) {
		t.Error("field order changed the hash")
	}
}

// Semantic changes must change the hash.
func TestHashSensitivity(t *testing.T) {
	base := func() *Spec {
		return &Spec{Nodes: 2, RanksPerNode: 2, Domain: "48", Radius: 1, Quantities: 2}
	}
	want := mustHash(t, base())

	mutations := map[string]func(*Spec){
		"nodes":  func(s *Spec) { s.Nodes = 4 },
		"domain": func(s *Spec) { s.Domain = "64" },
		"radius": func(s *Spec) { s.Radius = 2 },
		"caps":   func(s *Spec) { s.Caps = "remote" },
		"iters":  func(s *Spec) { s.Iters = 30 },
		"verify": func(s *Spec) { s.Verify = true },
		"scenario seed": func(s *Spec) {
			s.Scenario = &fault.Scenario{Seed: 1, Events: []fault.Event{{At: 1, Kind: fault.MsgDrop, Factor: 0.1, Target: fault.Target{Kind: fault.TargetNIC}}}}
		},
		"drop rate": func(s *Spec) {
			s.Scenario = &fault.Scenario{Seed: 1, Events: []fault.Event{{At: 1, Kind: fault.MsgDrop, Factor: 0.2, Target: fault.Target{Kind: fault.TargetNIC}}}}
		},
		"quarantine": func(s *Spec) { s.QuarantineTicks = 3 },
		"checkpoint": func(s *Spec) { s.CheckpointEvery = 5 },
		"overlap":    func(s *Spec) { s.Overlap = true },
	}
	seen := map[string]string{}
	for name, mutate := range mutations {
		s := base()
		mutate(s)
		got := mustHash(t, s)
		if got == want {
			t.Errorf("mutation %q did not change the hash", name)
		}
		for prev, h := range seen {
			if h == got {
				t.Errorf("mutations %q and %q collide", prev, name)
			}
		}
		seen[name] = got
	}
}

// SetupHash must be invariant under run-shape and resilience changes (those
// share the cached placement) but sensitive to anything that feeds the
// partition/placement/specialization phases.
func TestSetupHashInvariants(t *testing.T) {
	base := func() *Spec {
		return &Spec{Nodes: 2, RanksPerNode: 2, Domain: "48", Radius: 1, Quantities: 2}
	}
	want := mustSetupHash(t, base())

	sameSetup := map[string]func(*Spec){
		"iters": func(s *Spec) { s.Iters = 30 },
		"scenario": func(s *Spec) {
			s.Scenario = &fault.Scenario{Events: []fault.Event{{At: 1, Kind: fault.MsgDrop, Factor: 0.1, Target: fault.Target{Kind: fault.TargetNIC}}}}
		},
		"reliable": func(s *Spec) { s.Reliable = true },
		"verify":   func(s *Spec) { s.Verify = true },
		"caps":     func(s *Spec) { s.Caps = "remote" },
		"adaptive": func(s *Spec) { s.Adaptive = true },
	}
	for name, mutate := range sameSetup {
		s := base()
		mutate(s)
		if mustSetupHash(t, s) != want {
			t.Errorf("run-shape mutation %q changed the setup hash", name)
		}
		if mustHash(t, s) == mustHash(t, base()) {
			t.Errorf("mutation %q should still change the full hash", name)
		}
	}

	differentSetup := map[string]func(*Spec){
		"nodes":     func(s *Spec) { s.Nodes = 4 },
		"ranks":     func(s *Spec) { s.RanksPerNode = 1 },
		"domain":    func(s *Spec) { s.Domain = "64" },
		"radius":    func(s *Spec) { s.Radius = 2 },
		"trivial":   func(s *Spec) { s.TrivialPlacement = true },
		"empirical": func(s *Spec) { s.EmpiricalPlacement = true },
		"open":      func(s *Spec) { s.OpenBoundary = true },
		"gpus":      func(s *Spec) { s.Sockets = 1; s.GPUsPerSocket = 6 },
	}
	for name, mutate := range differentSetup {
		s := base()
		mutate(s)
		if mustSetupHash(t, s) == want {
			t.Errorf("setup mutation %q did not change the setup hash", name)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"bad domain", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12x12", Radius: 1, Quantities: 1}, "domain"},
		{"bad caps", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Caps: "warp"}, "caps"},
		{"indivisible", Spec{Nodes: 1, RanksPerNode: 4, Domain: "12", Radius: 1, Quantities: 1}, "divisible"},
		{"neighborhood", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Neighborhood: 7}, "neighborhood"},
		{"face contradiction", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, FaceOnly: true, Neighborhood: 18}, "contradicts"},
		{"negative iters", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Iters: -1}, "iters"},
		{"no radius", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Quantities: 1}, "radius"},
		{"overlap vs no_overlap", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Overlap: true, NoOverlap: true}, "NoOverlap"},
		{"overlap vs aggregate", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Overlap: true, AggregateRemote: true}, "AggregateRemote"},
		{"overlap vs adapt_placement", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Overlap: true, Adaptive: true, AdaptPlacement: true}, "AdaptPlacement"},
		{"overlap vs cuda_aware", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Overlap: true, CUDAAware: true}, "CUDAAware"},
		{"adapt_placement without adaptive", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, AdaptPlacement: true}, "AdaptPlacement"},
		{"adapt_placement vs aggregate", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Adaptive: true, AdaptPlacement: true, AggregateRemote: true}, "AggregateRemote"},
		{"fatal fault vs aggregate", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, CheckpointEvery: 2, AggregateRemote: true,
			Scenario: (&fault.Scenario{}).KillGPU(1e-3, 0, 0)}, "AggregateRemote"},
		{"fatal fault without checkpoint", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1,
			Scenario: (&fault.Scenario{}).KillGPU(1e-3, 0, 0)}, "CheckpointEvery"},
		{"negative checkpoint_every", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, CheckpointEvery: -1}, "CheckpointEvery"},
		{"thinner than radius", Spec{Nodes: 1, RanksPerNode: 2, Domain: "4", Radius: 3, Quantities: 1}, "thinner than radius"},
		{"straggle factor below 1", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1,
			Scenario: (&fault.Scenario{}).StraggleGPU(1e-3, 0, 0, 0.5, 0)}, "straggle factor"},
		{"degrade factor 0", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1,
			Scenario: (&fault.Scenario{}).DegradeNIC(1e-3, 0, 0)}, "degrade factor"},
		{"negative send_timeout", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, SendTimeout: -1}, "send_timeout"},
		{"negative send_retries", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, SendRetries: -2}, "SendRetries"},
		{"negative quarantine_ticks", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, QuarantineTicks: -3}, "QuarantineTicks"},
		{"no sockets", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Sockets: -1}, "socket"},
		{"prime node count near 1e18", Spec{Nodes: 999999999999999989, RanksPerNode: 1, Domain: "12", Radius: 1, Quantities: 1}, "GPUs"},
		{"prime node count near 2^63", Spec{Nodes: 9223372036854775783, RanksPerNode: 1, Domain: "1x1x9223372036854775807", Radius: 1, Quantities: 1}, "GPUs"},
		{"sockets x gpus overflow", Spec{Nodes: 1, RanksPerNode: 1, Sockets: 1 << 40, GPUsPerSocket: 1 << 40, Domain: "12", Radius: 1, Quantities: 1}, "GPUs"},
		{"verify field over the real-data cap", Spec{Nodes: 1, RanksPerNode: 2, Domain: "1024", Radius: 1, Quantities: 1, Verify: true}, "real data"},
		{"verify field product overflow", Spec{Nodes: 1, RanksPerNode: 1, Domain: "1x1x9223372036854775807", Radius: 1, Quantities: 1 << 40, Verify: true, ElemSize: 1 << 40}, "real data"},
		{"verify with 2-byte cells", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Verify: true, ElemSize: 2}, "ElemSize"},
		{"negative deadline", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, DeadlineSeconds: -1}, "deadline_s"},
		{"bad tenant charset", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Tenant: "a b"}, "tenant"},
		{"long tenant", Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1, Tenant: strings.Repeat("x", 65)}, "tenant"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// The real-data cap admits the largest verifying specs in use: the
// benchmark's 192³ x 4 x 4-byte layer spec (about 113 MB) and a field of
// exactly MaxRealDataBytes; one more cell is over.
func TestRealDataCapAdmits(t *testing.T) {
	for _, sp := range []Spec{
		{Nodes: 2, RanksPerNode: 2, Domain: "192", Radius: 2, Quantities: 4, Caps: "kernel", Iters: 20,
			Verify: true, Overlap: true, Reliable: true, VerifyExchange: true},
		{Nodes: 1, RanksPerNode: 2, Domain: "512x512x1024", Radius: 1, Quantities: 1, Verify: true},
	} {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", sp.Domain, err)
		}
	}
	over := Spec{Nodes: 1, RanksPerNode: 2, Domain: "512x512x1025", Radius: 1, Quantities: 1, Verify: true}
	if err := over.Validate(); err == nil || !strings.Contains(err.Error(), "real data") {
		t.Errorf("%s: error %v, want the real-data cap", over.Domain, err)
	}
	over.Verify = false
	if err := over.Validate(); err != nil {
		t.Errorf("time-only %s: %v", over.Domain, err)
	}
}

// Serving metadata (tenant, deadline) is not part of the job's identity: two
// specs differing only in it are the same job and must share both content
// addresses — otherwise every tenant would fragment the result cache.
func TestHashIgnoresServingMetadata(t *testing.T) {
	base := &Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1}
	meta := &Spec{Nodes: 1, RanksPerNode: 2, Domain: "12", Radius: 1, Quantities: 1,
		Tenant: "alice", DeadlineSeconds: 2.5}
	if got, want := mustHash(t, meta), mustHash(t, base); got != want {
		t.Errorf("tenant/deadline changed the job hash: %s vs %s", got, want)
	}
	if got, want := mustSetupHash(t, meta), mustSetupHash(t, base); got != want {
		t.Errorf("tenant/deadline changed the setup hash: %s vs %s", got, want)
	}
	// ...but Normalize keeps them on the spec itself: the serving layer reads
	// them after normalization.
	c := *meta
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.Tenant != "alice" || c.DeadlineSeconds != 2.5 {
		t.Errorf("Normalize dropped serving metadata: %+v", c)
	}
}

// Normalize is idempotent: a normalized spec re-normalizes to itself, and its
// canonical bytes are stable.
func TestNormalizeIdempotent(t *testing.T) {
	s := &Spec{Nodes: 2, RanksPerNode: 3, Domain: "96", Radius: 2, Quantities: 4, FaceOnly: true}
	c1, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	c2, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(c1) != string(c2) {
		t.Errorf("canonical bytes unstable:\n%s\n%s", c1, c2)
	}
}
