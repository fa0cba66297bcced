package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/service"
)

func TestRunSelfSpawned(t *testing.T) {
	// run() with no -addr spawns its own service instance on a loopback port.
	if err := run([]string{"-timeout", "30s"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChecksAgainstLiveServer(t *testing.T) {
	srv, err := service.New(service.Config{Store: catalog.NewStore(), SlowTrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out strings.Builder
	if err := runChecks(ctx, ts.URL, &out); err != nil {
		t.Fatalf("checks failed: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"ok healthz", "ok install", "ok estimate", "ok metrics: exposition valid", "ok traces"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunChecksFailsWhenTracingDisabled(t *testing.T) {
	srv, err := service.New(service.Config{Store: catalog.NewStore(), TraceRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out strings.Builder
	err = runChecks(ctx, ts.URL, &out)
	if err == nil || !strings.Contains(err.Error(), "traceparent") && !strings.Contains(err.Error(), "traces") {
		t.Fatalf("err = %v, want tracing-related failure", err)
	}
}

func TestRunChecksFailsAgainstNonService(t *testing.T) {
	ts := httptest.NewServer(nil) // 404 for everything
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var out strings.Builder
	if err := runChecks(ctx, ts.URL, &out); err == nil {
		t.Fatal("checks passed against a server with no routes")
	}
}
