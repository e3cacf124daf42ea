package main

import "testing"

// TestPromSampleGrammar pins the sample-line grammar checkMetrics
// applies: label values are quoted strings that may hold braces,
// commas and escaped quotes, and a label set must be name="value"
// pairs.
func TestPromSampleGrammar(t *testing.T) {
	for _, line := range []string{
		`wsrsd_sims_total 2`,
		`wsrsd_http_request_ms_bucket{endpoint="/v1/cache/{digest}",le="1"} 0`,
		`wsrsd_fleet_member_up{member="http://127.0.0.1:19002"} 0`,
		`x{a="q\"uo}te",b="c,d",} 1.5`,
		`x{} 1`,
	} {
		if promSample.FindStringSubmatch(line) == nil {
			t.Errorf("valid sample rejected: %s", line)
		}
	}
	for _, line := range []string{
		`x{a} 1`,
		`x{a="1"`,
		`x{a="1"}`,
		`x{a="1" b="2"} 1`,
		`1x 1`,
	} {
		if promSample.FindStringSubmatch(line) != nil {
			t.Errorf("malformed sample accepted: %s", line)
		}
	}
}
