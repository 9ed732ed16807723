package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"
)

// minCoverage is the share of client-observed time per route that the
// traced layers must account for: handler self-time plus HTTP overhead
// on requests whose spans link up. A request whose handler span is
// missing, or whose gateway span has no shard span under it, is time
// no layer accounts for.
const minCoverage = 0.9

// traceStats is the traced half's spans reduced to per-layer figures.
type traceStats struct {
	spans int
	// Per client request, by route: round-trip time, and for linked
	// requests the HTTP overhead (RTT minus outermost handler time). µs.
	rtt, overhead [nRoutes][]float64
	// Linked requests' time split by layer: HTTP, the gateway's own work
	// (its span minus the shard span it waited on), and the shard or
	// flat server. µs totals.
	selfHTTP, selfGateway, selfServer [nRoutes]float64
	// Every handler span, whoever sent the request. µs.
	server, gateway, gatewaySelf [nRoutes][]float64
	serverErrors                 [nRoutes]int
	// Partial exchange spans and the leader's handler spans under them. ms.
	exchange, leader []float64
	coverage         [nRoutes]float64
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func analyze(spans []span) *traceStats {
	ts := &traceStats{spans: len(spans)}
	children := make(map[uint64][]int)
	for i, s := range spans {
		if s.layer != layerClient && s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	childTime := func(id uint64) time.Duration {
		var d time.Duration
		for _, j := range children[id] {
			d += spans[j].dur()
		}
		return d
	}
	for _, s := range spans {
		rt := s.route
		switch s.layer {
		case layerClient:
			rtt := us(s.dur())
			ts.rtt[rt] = append(ts.rtt[rt], rtt)
			kids := children[s.id]
			if len(kids) != 1 {
				continue
			}
			h := spans[kids[0]]
			// The gateway proxies task and update to one shard with the
			// request's headers; batch check-ins and status fan out to
			// every shard in fresh requests, so their shard spans stay
			// unlinked and the gateway span covers them.
			if h.layer == layerGateway && (rt == rTask || rt == rUpdate) && len(children[h.id]) == 0 {
				continue
			}
			outer := us(h.dur())
			ts.overhead[rt] = append(ts.overhead[rt], rtt-outer)
			ts.selfHTTP[rt] += rtt - outer
			if h.layer == layerGateway {
				inner := us(childTime(h.id))
				ts.selfGateway[rt] += outer - inner
				ts.selfServer[rt] += inner
			} else {
				ts.selfServer[rt] += outer
			}
		case layerServer:
			ts.server[rt] = append(ts.server[rt], us(s.dur()))
			if !okStatus(rt, s.status) {
				ts.serverErrors[rt]++
			}
		case layerGateway:
			ts.gateway[rt] = append(ts.gateway[rt], us(s.dur()))
			ts.gatewaySelf[rt] = append(ts.gatewaySelf[rt], us(s.dur()-childTime(s.id)))
		case layerExchange:
			ts.exchange = append(ts.exchange, us(s.dur())/1e3)
		case layerLeader:
			ts.leader = append(ts.leader, us(s.dur())/1e3)
		}
	}
	for _, rt := range clientRoutes {
		ts.coverage[rt] = ratio(ts.selfHTTP[rt]+ts.selfGateway[rt]+ts.selfServer[rt], sum(ts.rtt[rt]))
	}
	return ts
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// printTable writes the per-layer self-time table: for each route, the
// client time the traced window's requests took and each layer's share.
func (ts *traceStats) printTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "route\trequests\tclient ms\thttp %\tgateway %\tserver %\tunlinked %\tcoverage\t")
	for _, rt := range clientRoutes {
		total := sum(ts.rtt[rt])
		pct := func(x float64) string { return fmt.Sprintf("%.1f", 100*ratio(x, total)) }
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%s\t%s\t%s\t%s\t%.3f\t\n", routeNames[rt], len(ts.rtt[rt]), total/1e3,
			pct(ts.selfHTTP[rt]), pct(ts.selfGateway[rt]), pct(ts.selfServer[rt]), pct(total*(1-ts.coverage[rt])), ts.coverage[rt])
	}
	tw.Flush()
	if len(ts.exchange) > 0 {
		fmt.Fprintf(w, "partial exchange: %d submits, p50 %.2f ms (leader handler p50 %.2f ms, %d spans)\n",
			len(ts.exchange), median(ts.exchange), median(ts.leader), len(ts.leader))
	}
}

// writeSpans writes the traced window's spans as tab-separated text,
// times in nanoseconds from the first span's start.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].start
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "trace\tid\tparent\tlayer\troute\tstatus\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.trace, s.id, s.parent, layerNames[s.layer],
			routeNames[s.route], s.status, s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
