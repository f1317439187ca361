package llm

import (
	"context"
	"strings"
	"testing"
)

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs([]byte(`[
		{"name": "GPT4", "provider": "sim"},
		{"name": "live", "provider": "http", "base_url": "http://127.0.0.1:9/v1",
		 "model": "gpt-4o", "max_attempts": 3, "rps": 5, "burst": 2,
		 "max_in_flight": 4, "cache_size": 128}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "GPT4" || specs[1].Model != "gpt-4o" {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[1].MaxAttempts != 3 || specs[1].RPS != 5 || specs[1].CacheSize != 128 {
		t.Errorf("middleware fields = %+v", specs[1])
	}

	bad := []string{
		`[]`,                    // empty
		`[{"provider": "sim"}]`, // no name
		`[{"name": "a"}]`,       // no provider
		`[{"name":"a","provider":"sim"},{"name":"a","provider":"sim"}]`, // dup
		`{"name":"a"}`, // not an array
	}
	for _, in := range bad {
		if _, err := ParseSpecs([]byte(in)); err == nil {
			t.Errorf("ParseSpecs(%s) succeeded", in)
		}
	}
}

func TestBuildClient(t *testing.T) {
	providers := map[string]Factory{
		"fake": func(spec Spec) (Client, error) { return fakeClient{name: spec.Name}, nil },
	}
	stats := NewStats()
	c, err := BuildClient(Spec{Name: "m", Provider: "fake", MaxAttempts: 3, CacheSize: 4}, providers, stats)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "m" {
		t.Errorf("Name = %q", c.Name())
	}
	if _, err := c.Do(context.Background(), NewRequest("p")); err != nil {
		t.Fatal(err)
	}
	if got := stats.Model("m").Requests.Load(); got != 1 {
		t.Errorf("instrumented requests = %d", got)
	}
	// The cache sits above Instrument: a repeat request is served without a
	// second counted request.
	if _, err := c.Do(context.Background(), NewRequest("p")); err != nil {
		t.Fatal(err)
	}
	if got := stats.Model("m").Requests.Load(); got != 1 {
		t.Errorf("cached repeat counted as request (requests=%d)", got)
	}

	if _, err := BuildClient(Spec{Name: "m", Provider: "nosuch"}, providers, nil); err == nil {
		t.Error("unknown provider should fail")
	}
	// A factory returning a misnamed client is a config bug, not a silent
	// rename.
	providers["liar"] = func(spec Spec) (Client, error) { return fakeClient{name: "other"}, nil }
	if _, err := BuildClient(Spec{Name: "m", Provider: "liar"}, providers, nil); err == nil ||
		!strings.Contains(err.Error(), "named") {
		t.Errorf("misnamed client error = %v", err)
	}
}

// A ClientCache hands every registry the same client instance per name, so
// middleware state (rate limits, caches, semaphores) is global rather than
// per environment.
func TestClientCacheSharesInstances(t *testing.T) {
	var built int
	providers := map[string]Factory{
		"fake": func(spec Spec) (Client, error) { built++; return fakeClient{name: spec.Name}, nil },
	}
	var cc ClientCache
	spec := Spec{Name: "m", Provider: "fake", CacheSize: 4}
	a, err := cc.Build(spec, providers, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.Build(spec, providers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("ClientCache built distinct instances for one name")
	}
	if built != 1 {
		t.Errorf("factory ran %d times, want 1", built)
	}
	if _, err := cc.Build(Spec{Name: "other", Provider: "nosuch"}, providers, nil); err == nil {
		t.Error("bad spec should fail and not be cached")
	}
	if _, err := cc.Build(Spec{Name: "other", Provider: "fake"}, providers, nil); err != nil {
		t.Errorf("name should be buildable after a failed attempt: %v", err)
	}
}
