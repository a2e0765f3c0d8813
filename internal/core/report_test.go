package core

// Table-driven tests for Options.withDefaults and the Report aggregate
// helpers — the empty-rounds and single-round edges the evaluation tables
// lean on.

import (
	"reflect"
	"testing"
	"time"
)

func TestOptionsWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		want Options
	}{
		{
			name: "zero value gets every default",
			in:   Options{},
			want: Options{Strategy: FullFeedback, Window: 10, Adjust: 1,
				MaxRounds: DefaultMaxRounds, RunsPerRound: 1, Addressing: AddrOccurrence},
		},
		{
			name: "negative knobs are treated as unset",
			in:   Options{Window: -5, Adjust: -1, MaxRounds: -10, RunsPerRound: -2},
			want: Options{Strategy: FullFeedback, Window: 10, Adjust: 1,
				MaxRounds: DefaultMaxRounds, RunsPerRound: 1, Addressing: AddrOccurrence},
		},
		{
			name: "explicit values survive",
			in: Options{Strategy: Random, Window: 3, Adjust: 2, MaxRounds: 7,
				RunsPerRound: 4, Seed: 42},
			want: Options{Strategy: Random, Window: 3, Adjust: 2, MaxRounds: 7,
				RunsPerRound: 4, Seed: 42, Addressing: AddrOccurrence},
		},
		{
			name: "seed zero stays zero (a valid master seed)",
			in:   Options{Seed: 0, Window: 1},
			want: Options{Strategy: FullFeedback, Window: 1, Adjust: 1,
				MaxRounds: DefaultMaxRounds, RunsPerRound: 1, Addressing: AddrOccurrence},
		},
		{
			name: "explicit path addressing survives",
			in:   Options{Addressing: AddrPath},
			want: Options{Strategy: FullFeedback, Window: 10, Adjust: 1,
				MaxRounds: DefaultMaxRounds, RunsPerRound: 1, Addressing: AddrPath},
		},
		{
			// The §5.2.4 ablations are strategy rows, named like any other.
			name: "ablation flags pass through untouched",
			in:   Options{Strategy: GlobalDiff},
			want: Options{Strategy: GlobalDiff, Window: 10, Adjust: 1,
				MaxRounds: DefaultMaxRounds, RunsPerRound: 1, Addressing: AddrOccurrence},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.withDefaults(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("withDefaults()\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func TestReportMediansEdgeCases(t *testing.T) {
	mkRounds := func(inits ...time.Duration) []Round {
		out := make([]Round, len(inits))
		for i, d := range inits {
			out[i] = Round{N: i + 1, InitTime: d, RunTime: 10 * d, InjectReqs: int(d / time.Millisecond)}
		}
		return out
	}
	cases := []struct {
		name     string
		rounds   []Round
		wantInit time.Duration
		wantRun  time.Duration
		wantReqs int
	}{
		{name: "empty round log", rounds: nil, wantInit: 0, wantRun: 0, wantReqs: 0},
		{name: "single round is its own median",
			rounds:   mkRounds(5 * time.Millisecond),
			wantInit: 5 * time.Millisecond, wantRun: 50 * time.Millisecond, wantReqs: 5},
		{name: "even count takes the upper median",
			rounds:   mkRounds(1*time.Millisecond, 4*time.Millisecond),
			wantInit: 4 * time.Millisecond, wantRun: 40 * time.Millisecond, wantReqs: 4},
		{name: "unsorted input is sorted before picking",
			rounds:   mkRounds(9*time.Millisecond, 1*time.Millisecond, 5*time.Millisecond),
			wantInit: 5 * time.Millisecond, wantRun: 50 * time.Millisecond, wantReqs: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Report{RoundLog: tc.rounds}
			if got := r.MedianInitTime(); got != tc.wantInit {
				t.Errorf("MedianInitTime=%v, want %v", got, tc.wantInit)
			}
			if got := r.MedianRunTime(); got != tc.wantRun {
				t.Errorf("MedianRunTime=%v, want %v", got, tc.wantRun)
			}
			if got := r.MedianInjectReqs(); got != tc.wantReqs {
				t.Errorf("MedianInjectReqs=%d, want %d", got, tc.wantReqs)
			}
		})
	}
}

func TestMeanDecisionLatency(t *testing.T) {
	cases := []struct {
		name   string
		rounds []Round
		want   time.Duration
	}{
		{name: "empty round log", rounds: nil, want: 0},
		{name: "zero requests avoids dividing by zero",
			rounds: []Round{{DecideTime: time.Second, InjectReqs: 0}}, want: 0},
		{name: "single round divides by its requests",
			rounds: []Round{{DecideTime: 100 * time.Microsecond, InjectReqs: 4}},
			want:   25 * time.Microsecond},
		{name: "mean pools time and requests across rounds",
			rounds: []Round{
				{DecideTime: 30 * time.Microsecond, InjectReqs: 1},
				{DecideTime: 10 * time.Microsecond, InjectReqs: 3},
			},
			want: 10 * time.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Report{RoundLog: tc.rounds}
			if got := r.MeanDecisionLatency(); got != tc.want {
				t.Errorf("MeanDecisionLatency=%v, want %v", got, tc.want)
			}
		})
	}
}

// The helpers must not reorder the report's round log: callers iterate it
// for Figure 6 after computing medians.
func TestMediansDoNotReorderRoundLog(t *testing.T) {
	r := &Report{RoundLog: []Round{
		{N: 1, InitTime: 9, RunTime: 9, InjectReqs: 9},
		{N: 2, InitTime: 1, RunTime: 1, InjectReqs: 1},
		{N: 3, InitTime: 5, RunTime: 5, InjectReqs: 5},
	}}
	r.MedianInitTime()
	r.MedianRunTime()
	r.MedianInjectReqs()
	r.MeanDecisionLatency()
	for i, rd := range r.RoundLog {
		if rd.N != i+1 {
			t.Fatalf("round log reordered: %+v", r.RoundLog)
		}
	}
}
