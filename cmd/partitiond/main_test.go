package main

import (
	"strings"
	"testing"
)

// TestTraceSampleOutOfRange: -trace-sample outside [0,1], NaN included, is
// rejected before any port is bound. The address cannot be bound either, so
// a value that slipped through would end the run with a listen error
// instead of serving.
func TestTraceSampleOutOfRange(t *testing.T) {
	for _, v := range []string{"NaN", "-0.1", "1.5", "+Inf"} {
		err := run([]string{"partitiond", "-addr", "127.0.0.1:-1", "-trace-sample", v})
		if err == nil || !strings.Contains(err.Error(), "-trace-sample must be in [0,1]") {
			t.Errorf("-trace-sample %s: %v, want the range error", v, err)
		}
	}
}
