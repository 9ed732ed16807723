package shard

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"flint/internal/coord"
)

// The tier exchange's private wire surface, hosted by the gateway next
// to the public /v1 device API:
//
//	POST /shard/v1/partial  body = codec blob, metadata in X-Flint-*
//	POST /shard/v1/ping?shard=N
//
// The leader's TierStatus is served once, as the "tier" section of the
// gateway's GET /v1/status document.
//
// A partial's body is the exact blob coord's partialLocked encoded —
// the exchange never re-frames it — and a behind shard's response body
// is the leader's raw64 global blob with the version in a header, so
// both directions of the exchange move parameters in codec wire form
// only.
const (
	pathPartial = "/shard/v1/partial"
	pathPing    = "/shard/v1/ping"

	hdrShard   = "X-Flint-Shard"
	hdrJob     = "X-Flint-Job"
	hdrRound   = "X-Flint-Round"
	hdrBase    = "X-Flint-Base-Version"
	hdrUpdates = "X-Flint-Updates"
	hdrWeight  = "X-Flint-Weight"
	hdrVersion = "X-Flint-Version"
)

// HTTPExchange is the shard replica's client on the tier exchange: it
// implements coord.PartialExchange and Pinger against a gateway URL
// over a pooled keep-alive transport, so a replica's partial cadence
// reuses one warm connection instead of paying a dial per round.
type HTTPExchange struct {
	base   string
	client *http.Client
}

// NewHTTPExchange builds an exchange client for a gateway base URL
// ("http://host:port", no trailing slash needed).
func NewHTTPExchange(base string) *HTTPExchange {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &HTTPExchange{
		base: base,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        8,
				MaxIdleConnsPerHost: 8,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
}

// SubmitPartial implements coord.PartialExchange over HTTP. A gateway
// 503 maps back to coord.ErrTierHalted so the shard's exchange loop
// keeps the round parked and retries — the halt crosses the wire as a
// status code, not a payload.
func (x *HTTPExchange) SubmitPartial(pc coord.PartialCommit) (coord.GlobalInstall, error) {
	req, err := http.NewRequest(http.MethodPost, x.base+pathPartial, bytes.NewReader(pc.Blob))
	if err != nil {
		return coord.GlobalInstall{}, err
	}
	req.Header.Set("Content-Type", coord.ContentTypeTensor)
	req.Header.Set(hdrShard, strconv.Itoa(pc.ShardID))
	if pc.Job != "" {
		req.Header.Set(hdrJob, pc.Job)
	}
	req.Header.Set(hdrRound, strconv.FormatUint(pc.Round, 10))
	req.Header.Set(hdrBase, strconv.Itoa(pc.BaseVersion))
	req.Header.Set(hdrUpdates, strconv.Itoa(pc.Updates))
	req.Header.Set(hdrWeight, strconv.FormatFloat(pc.Weight, 'g', -1, 64))
	resp, err := x.client.Do(req)
	if err != nil {
		return coord.GlobalInstall{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return coord.GlobalInstall{}, coord.ErrTierHalted
	}
	if resp.StatusCode != http.StatusOK {
		return coord.GlobalInstall{}, fmt.Errorf("shard: exchange rejected partial: %s", resp.Status)
	}
	version, err := strconv.Atoi(resp.Header.Get(hdrVersion))
	if err != nil {
		return coord.GlobalInstall{}, fmt.Errorf("shard: exchange response missing %s: %w", hdrVersion, err)
	}
	inst := coord.GlobalInstall{Version: version}
	if resp.ContentLength != 0 {
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			return coord.GlobalInstall{}, fmt.Errorf("shard: read install blob: %w", err)
		}
		inst.Blob = blob
	}
	return inst, nil
}

// Ping implements Pinger over HTTP.
func (x *HTTPExchange) Ping(shardID int) error {
	resp, err := x.client.Post(
		x.base+pathPing+"?shard="+strconv.Itoa(shardID), "text/plain", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: ping rejected: %s", resp.Status)
	}
	return nil
}
