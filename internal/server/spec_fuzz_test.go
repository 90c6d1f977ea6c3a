package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"chameleon/internal/workload"
)

// FuzzJobSpec decodes arbitrary submissions the way POST /v1/jobs
// does, then normalizes and hashes them. Nothing may panic;
// normalization must be idempotent (same spec, same hash); and the
// hash of a normalized spec must survive a JSON round trip, since a
// forwarded submit re-normalizes and re-hashes the spec on the peer.
// Trace replays are skipped: their normalization reads the file.
func FuzzJobSpec(f *testing.F) {
	seeds := []JobSpec{
		fastSpec(1),
		slowSpec(2),
		fastDSESpec(),
		{Kind: KindMatrix, Workloads: []string{"bwaves"}, Scale: 1024, Instructions: 5000, Warmup: 1},
		{Policy: "hwc", Workload: "mcf", Threads: 4, TimeoutMS: 10},
		{Policy: "flat", Workload: "lbm", Ratio: 5},
	}
	for _, s := range seeds {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{}`, `null`, `{"kind":"dse"}`, `{"kind":"dse","dse":{}}`, `{"kind":"matrix","parallelism":-3}`,
		`{"policy":"chameleon","workload":"mcf","scale":3}`,
		`{"policy":"chameleon","workload":"mcf","cache_levels":[{}]}`,
		`{"policy":"chameleon","workload":"mcf","memory_tiers":[{},{}]}`,
		`{"kind":"dse","scale":512,"seed":7,"dse":{"ratios":[3,5],"workloads":["mcf"],"policies":["alloy"]}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if spec.TracePath != "" || strings.HasPrefix(spec.Workload, workload.ReplayPrefix) {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		hash := norm.Hash()
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized spec does not normalize: %v\n%+v", err, norm)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent:\nonce  %+v\ntwice %+v", norm, again)
		}
		if h := again.Hash(); h != hash {
			t.Fatalf("hash changed on renormalization: %s vs %s", hash, h)
		}
		b, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		var wire JobSpec
		if err := json.Unmarshal(b, &wire); err != nil {
			t.Fatalf("normalized spec does not decode: %v", err)
		}
		if h := wire.Hash(); h != hash {
			t.Fatalf("hash changed over JSON:\nbefore %s\nafter  %s\n%s", hash, h, b)
		}
	})
}
