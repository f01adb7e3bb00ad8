package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/pkg/hod"
	"repro/pkg/hod/wire"
)

// cmdWatch tails the live push stream of a running hodserve (GET
// /v1/events): alerts, cube-delta notifications, and stats snapshots,
// reconnecting and resuming automatically. Ctrl-C exits cleanly.
func cmdWatch(args []string) error {
	fs := newFlagSet("watch")
	addr := fs.String("addr", "http://localhost:8080", "hodserve base URL")
	plants := fs.String("plants", "*", "comma-separated plant IDs (\"*\" = every visible plant)")
	kinds := fs.String("kinds", "alert", "comma-separated event kinds: alert,cube_delta,stats")
	key := fs.String("key", "", "API key for servers running with -tenants")
	count := fs.Int("n", 0, "exit after N events (0 = stream until interrupted)")
	asJSON := fs.Bool("json", false, "emit raw event JSON, one object per line")
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}

	var channels []string
	for _, kind := range strings.Split(*kinds, ",") {
		k := wire.EventKind(strings.TrimSpace(kind))
		switch k {
		case wire.EventAlert, wire.EventCubeDelta, wire.EventStats:
		default:
			return usagef("watch: unknown event kind %q (want alert, cube_delta, or stats)", kind)
		}
		for _, p := range strings.Split(*plants, ",") {
			channels = append(channels, wire.Channel{Kind: k, Plant: strings.TrimSpace(p)}.String())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var clientOpts []hod.ClientOption
	if *key != "" {
		clientOpts = append(clientOpts, hod.WithAPIKey(*key))
	}
	sub, err := hod.NewClient(*addr, clientOpts...).Subscribe(ctx,
		wire.SubscribeRequest{Channels: channels})
	if err != nil {
		return err
	}
	defer sub.Close()
	fmt.Fprintf(os.Stderr, "watch: subscribed to %s\n", strings.Join(channels, ", "))

	enc := json.NewEncoder(os.Stdout)
	for seen := 0; *count == 0 || seen < *count; seen++ {
		ev, err := sub.Next(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil // interrupted: a clean exit
			}
			return err
		}
		if *asJSON {
			if err := enc.Encode(ev); err != nil {
				return err
			}
			continue
		}
		printEvent(ev)
	}
	return nil
}

func printEvent(ev wire.Event) {
	tag := ""
	if ev.Coalesced {
		tag = " (coalesced)"
	}
	switch ev.Kind {
	case wire.EventAlert:
		fmt.Printf("%s seq=%d %d alert(s)%s\n", ev.Plant, ev.Seq, len(ev.Alerts), tag)
		for _, a := range ev.Alerts {
			fmt.Printf("  #%-6d %-14s %-12s %-10s t=%-5d value=%-10.3f z=%.1f\n",
				a.Seq, a.Machine, a.Phase, a.Sensor, a.T, a.Value, a.Score)
		}
	case wire.EventCubeDelta:
		fmt.Printf("%s cube advanced to revision %d%s\n", ev.Plant, ev.Revision, tag)
	case wire.EventStats:
		st := ev.Stats
		if st == nil {
			return
		}
		fmt.Printf("%s stats: received=%d accepted=%d rejected=%d revision=%d%s\n",
			ev.Plant, st.ReceivedRecords, st.AcceptedRecords, st.RejectedRecords, st.DataRevision, tag)
	}
}
