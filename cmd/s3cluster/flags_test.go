package main

import (
	"flag"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	if err := checkFlags(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, c := range []struct {
		name, value string
		ok          bool
	}{
		{"jobs", "-1", false},
		{"jobs", "0", true},
		{"nodes", "0", false},
		{"nodes", "1", true},
		{"blocks", "0", false},
		{"blocks", "1", true},
		{"blocksize", "0", false},
		{"blocksize", "1", true},
		{"minworkers", "0", false},
		{"minworkers", "1", true},
		{"hb", "-1s", false},
		{"hb", "0s", true},
		{"taskdeadline", "-1ms", false},
		{"taskdeadline", "0s", true},
		{"cachemb", "-1", false},
		{"cachemb", "0", true},
	} {
		if err := flag.Set(c.name, c.value); err != nil {
			t.Fatal(err)
		}
		err := checkFlags()
		if err := flag.Set(c.name, flag.Lookup(c.name).DefValue); err != nil {
			t.Fatal(err)
		}
		if (err == nil) != c.ok {
			t.Errorf("-%s %s: checkFlags() = %v, want ok=%v", c.name, c.value, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-"+c.name+" "+c.value) {
			t.Errorf("-%s %s: error %q does not name the flag and value", c.name, c.value, err)
		}
	}
}
