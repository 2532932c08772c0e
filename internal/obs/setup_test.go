package obs

import (
	"flag"
	"strings"
	"testing"
)

// newCLIFlagSet mirrors the flag surface the CLIs build: the shared obs
// flags plus a -workers int whose zero default means GOMAXPROCS.
func newCLIFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	AddFlags(fs)
	fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.Int("flight-events", 0, "event ring capacity (0 autosizes, negative disables)")
	return fs
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "no flags", args: nil},
		{name: "valid workers", args: []string{"-workers", "4"}},
		{name: "valid interval", args: []string{"-sample-interval", "100ms"}},
		{name: "zero workers", args: []string{"-workers", "0"}, wantErr: "-workers must be positive"},
		{name: "negative workers", args: []string{"-workers", "-3"}, wantErr: "-workers must be positive"},
		{name: "zero interval", args: []string{"-sample-interval", "0s"}, wantErr: "-sample-interval must be positive"},
		{name: "negative interval", args: []string{"-sample-interval", "-1s"}, wantErr: "-sample-interval must be positive"},
		{
			name:    "first offender reported",
			args:    []string{"-sample-interval", "-1s", "-workers", "0"},
			wantErr: "must be positive",
		},
		// The defaults are never rejected: -workers 0 as a *default* means
		// GOMAXPROCS and -sample-interval only matters when set.
		{name: "unset defaults pass", args: []string{"-metrics", "out.json"}},
		// -flight-events: 0 as a default autosizes, but an *explicit* 0 is
		// ambiguous (did the user mean "off"?) and rejected; negative
		// explicitly disables and positive sets the capacity, both fine up
		// to the sanity cap.
		{name: "flight events positive", args: []string{"-flight-events", "4096"}},
		{name: "flight events disable", args: []string{"-flight-events", "-1"}},
		{
			name:    "flight events explicit zero",
			args:    []string{"-flight-events", "0"},
			wantErr: "-flight-events 0 is ambiguous",
		},
		{
			name:    "flight events above cap",
			args:    []string{"-flight-events", "16777217"},
			wantErr: "-flight-events must be at most 16777216",
		},
		// Contention-profiling knobs: 0 (the default) means off, positive
		// sets the sampling rate, negative is nonsense.
		{name: "mutex fraction positive", args: []string{"-mutex-profile-fraction", "5"}},
		{name: "mutex fraction explicit zero", args: []string{"-mutex-profile-fraction", "0"}},
		{
			name:    "mutex fraction negative",
			args:    []string{"-mutex-profile-fraction", "-1"},
			wantErr: "-mutex-profile-fraction must be non-negative",
		},
		{name: "block rate positive", args: []string{"-block-profile-rate", "1000"}},
		{
			name:    "block rate negative",
			args:    []string{"-block-profile-rate", "-5"},
			wantErr: "-block-profile-rate must be non-negative",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newCLIFlagSet()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse: %v", err)
			}
			err := ValidateFlags(fs, "workers")
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ValidateFlags(%v) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ValidateFlags(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestValidateFlagsIgnoresUnlistedInts(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	AddFlags(fs)
	fs.Int("reps", 0, "0 = default")
	if err := fs.Parse([]string{"-reps", "0"}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlags(fs, "workers"); err != nil {
		t.Fatalf("unlisted int flag rejected: %v", err)
	}
}
