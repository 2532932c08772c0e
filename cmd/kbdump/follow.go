package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"time"

	"kbrepair/internal/obs/flight"
)

// normalizeDebugURL turns what the user passed — host:port, http://host:port,
// or a full URL — into the /debugz endpoint to poll. A path other than
// /debugz (say the user pasted the /metrics address) is replaced.
func normalizeDebugURL(target string) string {
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	if i := strings.Index(strings.TrimPrefix(target, "http://"), "/"); i >= 0 {
		target = target[:len("http://")+i]
	}
	return strings.TrimRight(target, "/") + "/debugz"
}

// runFollow tails the event ring of a live process over its /debugz
// endpoint: poll, print the events whose sequence numbers are new since the
// last poll, repeat. Anomaly events are marked so a watchdog firing stands
// out of the stream. polls == 0 follows until the process goes away (a
// fetch error after the first successful poll ends the loop).
func runFollow(w *bufio.Writer, target string, interval time.Duration, polls int) error {
	url := normalizeDebugURL(target)
	if interval <= 0 {
		interval = 2 * time.Second
	}
	client := &http.Client{Timeout: interval + 10*time.Second}
	var lastSeq uint64
	for n := 0; ; n++ {
		if n > 0 {
			time.Sleep(interval)
		}
		b, err := fetchBundle(client, url)
		if err != nil {
			if n == 0 {
				return fmt.Errorf("following %s: %w", url, err)
			}
			fmt.Fprintf(w, "-- %s unreachable (%v), stopping\n", url, err)
			return w.Flush()
		}
		events, err := parseEvents(b)
		if err != nil {
			return fmt.Errorf("%s: %w", url, err)
		}
		if n == 0 {
			fmt.Fprintf(w, "-- following %s (cmd %s, pid %d), %d events so far, every %s\n",
				url, b.Cmd, b.Env.PID, b.EventsTotal, interval)
			if evicted := b.EventsTotal - uint64(len(events)); evicted > 0 {
				fmt.Fprintf(w, "-- %d earlier events already evicted by the ring\n", evicted)
			}
		}
		for _, e := range events {
			if e.Seq <= lastSeq {
				continue
			}
			lastSeq = e.Seq
			marker := " "
			if e.Kind == "anomaly" {
				marker = "!"
			}
			fmt.Fprintf(w, "%s #%-6d t=%-12s %-24s %s\n", marker, e.Seq, fmtT(e.TUS), e.Kind, e.payload())
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if polls > 0 && n+1 >= polls {
			return nil
		}
	}
}

// fetchBundle grabs one /debugz capture. The reason query tags the bundle
// dump event the capture itself records, so a later post-mortem shows the
// follower's polls in the timeline.
func fetchBundle(client *http.Client, url string) (*flight.Bundle, error) {
	resp, err := client.Get(url + "?reason=follow")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	b, err := flight.DecodeBundle(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("decoding bundle: %w", err)
	}
	return b, nil
}
