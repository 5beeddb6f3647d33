package jobspec

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecDecode hardens the service's submission path: arbitrary JSON must
// never panic anywhere between decode and content addressing, and the
// canonicalization must be a fixpoint — hashing twice, or hashing the
// normalized form, must agree with the first hash. A spec that decodes and
// validates must also round-trip through its canonical JSON to the same
// content address (the property the journal's recovery replay relies on).
func FuzzSpecDecode(f *testing.F) {
	seed := [][]byte{
		[]byte(`{}`),
		[]byte(`{"nodes":1,"ranks_per_node":2,"domain":"12","radius":1,"quantities":1}`),
		[]byte(`{"nodes":2,"ranks_per_node":6,"domain":"24x12x12","radius":2,"quantities":4,"caps":"ALL","face_only":true}`),
		[]byte(`{"domain":"1363","iters":-3}`),
		[]byte(`{"domain":"0"}`),
		[]byte(`{"domain":"12","tenant":"alice","deadline_s":1.5}`),
		[]byte(`{"domain":"12","tenant":"bad tenant!"}`),
		[]byte(`{"domain":"12","scenario":{"events":[{"at":1,"kind":"link-degrade","target":{"kind":"nic","a":0},"factor":0.5}]}}`),
		[]byte(`{"domain":"12","scenario":{"events":[]}}`),
		[]byte(`{"nodes":9999999,"ranks_per_node":1,"domain":"1x1x99999999","radius":1,"quantities":1}`),
		[]byte(`{"nodes":999999999999999989,"ranks_per_node":1,"domain":"12","radius":1,"quantities":1}`),
		[]byte(`{"nodes":9223372036854775783,"ranks_per_node":1,"domain":"1x1x9223372036854775807","radius":1,"quantities":1}`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		// None of these may panic, whatever the field values.
		verr := s.Validate()
		c1, cerr := s.Canonical()
		h1, herr := s.Hash()
		if (cerr == nil) != (herr == nil) {
			t.Fatalf("Canonical err=%v but Hash err=%v", cerr, herr)
		}
		if herr != nil || verr != nil {
			return
		}
		// Hashing is stable and normalization is a fixpoint.
		if h2, err := s.Hash(); err != nil || h2 != h1 {
			t.Fatalf("second Hash = (%q, %v), want (%q, nil)", h2, err, h1)
		}
		if err := s.Normalize(); err != nil {
			t.Fatalf("Normalize after successful Validate: %v", err)
		}
		c2, err := s.Canonical()
		if err != nil || !bytes.Equal(c1, c2) {
			t.Fatalf("canonical bytes changed after Normalize: %v\n%s\nvs\n%s", err, c1, c2)
		}
		// The canonical form round-trips to the same content address — the
		// journal stores this form and recovery must re-derive the same key.
		var rt Spec
		if err := json.Unmarshal(c1, &rt); err != nil {
			t.Fatalf("canonical JSON does not decode: %v\n%s", err, c1)
		}
		if h3, err := rt.Hash(); err != nil || h3 != h1 {
			t.Fatalf("round-tripped Hash = (%q, %v), want (%q, nil)", h3, err, h1)
		}
		if _, err := s.SetupHash(); err != nil {
			t.Fatalf("SetupHash after successful Validate: %v", err)
		}
	})
}
