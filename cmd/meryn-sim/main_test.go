package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFlagCombosExitNonZero pins the error contract: invalid flag
// combinations and unknown values exit non-zero with a one-line message.
func TestBadFlagCombosExitNonZero(t *testing.T) {
	cases := [][]string{
		{"-policy", "bogus", "-vc1-apps", "1", "-vc2-apps", "0"},
		{"-workers", "4"},                  // sweep-only flag without -sweep
		{"-svc-load", "2"},                 // services-only flag without -services
		{"-sweep", "default", "-chart"},    // single-run flag with -sweep
		{"-services", "-policy", "static"}, // single-run flag with -services
		{"-sweep", "nope=1"},               // unknown sweep axis
		{"-trace", "/does/not/exist.csv", "-vc1-apps", "1"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) = 0, want non-zero", args)
		}
		msg := strings.TrimSpace(stderr.String())
		if msg == "" || !strings.HasPrefix(msg, "meryn-sim:") {
			t.Errorf("run(%v) stderr = %q, want one-line meryn-sim: message", args, msg)
		}
	}
}

// TestJSONErrorObject pins the machine-readable error contract: a
// failing run with -json writes {"error": "..."} to the JSON target.
func TestJSONErrorObject(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sweep", "bogus-axis=1", "-json", path}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("bad sweep spec with -json exited 0")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("JSON error file not written: %v", err)
	}
	var obj struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatalf("JSON target is not a JSON object: %q", b)
	}
	if obj.Error == "" {
		t.Fatalf("JSON error object has empty error: %q", b)
	}
}

// TestJSONErrorToStdout covers the "-" target.
func TestJSONErrorToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sweep", "bogus-axis=1", "-json", "-"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("exited 0")
	}
	var obj struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &obj); err != nil || obj.Error == "" {
		t.Fatalf("stdout JSON error = %q (err %v)", stdout.String(), err)
	}
}

// TestListExitsZero keeps the catalogue path healthy.
func TestListExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "table1") {
		t.Fatalf("catalogue missing experiments: %q", stdout.String())
	}
}

// TestSmallRunSucceeds exercises the single-run happy path end to end
// with a tiny workload.
func TestSmallRunSucceeds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-vc1-apps", "2", "-vc2-apps", "1", "-work", "100"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "applications: 3") {
		t.Fatalf("summary = %q", stdout.String())
	}
}

// TestRenderedOutputPinned runs the paper scenario under both policies
// and the services, serverless and chaos demos at seed 1, and pins the
// SHA-256 of each run's stdout. A change to any simulated outcome or to
// the rendering moves a pin; a refactor must leave them all in place.
func TestRenderedOutputPinned(t *testing.T) {
	for _, c := range []struct {
		args []string
		pin  string
	}{
		{nil, "e5b44898be65688a3634638190dca4ea26f797b34385aef55bbf87c21b0fd0fd"},
		{[]string{"-services"}, "c7ade5fa035d5f830c406989bf54f1e95f2f98694939336b65dd370bfbd647d8"},
		{[]string{"-serverless"}, "c99be602f694e6b2934ba1198972497e962a4cb82366446e774788b55d4c0332"},
		{[]string{"-chaos"}, "4e43f0eab8803886604e0a6651a5a8e9c8130189ec82b8f04c2bf7f17eae4ace"},
		{[]string{"-policy", "static"}, "72b41c0c960e8ea9160eb27ee01d179138137140bfe42410b42a46e15c596a46"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-seed", "1"}, c.args...), &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) exit = %d, stderr %q", c.args, code, stderr.String())
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(stdout.Bytes())); got != c.pin {
			t.Errorf("run(%v): stdout sha256 %s, pinned %s", c.args, got, c.pin)
		}
	}
}
