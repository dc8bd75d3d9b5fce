// Cluster: distributed mode in one process. This example boots a
// coordinator with a single seed worker, proves the sharded response is
// byte-identical to a single-node server, then walks the three Cluster v2
// behaviors end to end:
//
//  1. a second worker JOINS AT RUNTIME through POST /api/v1/cluster/join
//     and immediately serves shards — no coordinator restart;
//
//  2. a worker dies and the retry path degrades gracefully instead of
//     failing the request;
//
//  3. the coordinator itself "crashes" mid-job (its durable store's file
//     handle dies first, exactly like kill -9) and a successor over the
//     same -state-dir directory RESUMES the optimize job to done.
//
//     go run ./examples/cluster
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	neturl "net/url"
	"os"
	"strings"
	"time"

	"vocabpipe/internal/cluster"
	"vocabpipe/internal/jobs"
	"vocabpipe/internal/server"
)

func fetch(base, path string) ([]byte, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

func sweepPath(spec string) string {
	return "/api/v1/sweep?grid=" + neturl.QueryEscape(spec)
}

func main() {
	// Workers are plain vpserve instances — any server can serve shards.
	newWorker := func() (string, func()) {
		ws := server.New(server.Options{})
		baseURL, stop, err := server.StartLocal(ws)
		if err != nil {
			log.Fatal(err)
		}
		return baseURL, stop
	}
	seedURL, stopSeed := newWorker()
	defer stopSeed()
	fmt.Printf("seed worker listening on %s\n", seedURL)

	// The coordinator: a durable job store plus a member pool seeded with
	// one worker that others can join — `vpserve -role coordinator -workers
	// <seed> -state-dir <dir>` in library form.
	stateDir, err := os.MkdirTemp("", "vpserve-cluster-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	store, err := jobs.OpenFileStore(stateDir)
	if err != nil {
		log.Fatal(err)
	}
	copts := server.Options{
		Cluster:  &cluster.Options{Workers: []string{seedURL}},
		JobStore: store,
	}
	coord := server.New(copts)
	coordURL, stopCoord, err := server.StartLocal(coord)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinator listening on %s (1 seed member, state in %s)\n\n", coordURL, stateDir)

	// A single-node reference server computes the oracle answer.
	single := server.New(server.Options{})
	singleURL, stopSingle, err := server.StartLocal(single)
	if err != nil {
		log.Fatal(err)
	}
	defer stopSingle()

	// 1. Determinism: sharded and single-node responses are byte-identical.
	grid := "model=4B,10B;method=1f1b;vocab=64k;micro=32"
	sharded, err := fetch(coordURL, sweepPath(grid))
	if err != nil {
		log.Fatal(err)
	}
	local, err := fetch(singleURL, sweepPath(grid))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweep %q: %d bytes via the coordinator\n", grid, len(sharded))
	fmt.Printf("byte-identical to the single-node response: %v\n\n", string(sharded) == string(local))

	// 2. Join at runtime: a fresh worker registers through the public API
	// and the very next sweep can place shards on it — rendezvous placement
	// moves only the shards the newcomer now outranks the seed for, so the
	// seed's warm cache entries for the rest keep getting hit.
	joinedURL, stopJoined := newWorker()
	resp, err := http.Post(coordURL+"/api/v1/cluster/join", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, joinedURL)))
	if err != nil {
		log.Fatal(err)
	}
	var joined struct {
		URL     string `json:"url"`
		Added   bool   `json:"added"`
		Members int    `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&joined); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("worker %s joined at runtime: added=%v, members=%d\n", joined.URL, joined.Added, joined.Members)
	grid2 := "model=21B;method=vocab-1,vocab-2;vocab=128k;micro=64"
	sharded2, err := fetch(coordURL, sweepPath(grid2))
	if err != nil {
		log.Fatal(err)
	}
	local2, err := fetch(singleURL, sweepPath(grid2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweep %q across the grown pool still byte-identical: %v\n\n",
		grid2, string(sharded2) == string(local2))

	// 3. Worker death: the joined worker goes away; retries move its shards
	// back to the seed and the answer stays exact.
	fmt.Println("taking the joined worker down ...")
	stopJoined()
	grid3 := "model=30B;method=vhalf-vocab-1;vocab=64k,128k;micro=32"
	sharded3, err := fetch(coordURL, sweepPath(grid3))
	if err != nil {
		log.Fatal(err)
	}
	local3, err := fetch(singleURL, sweepPath(grid3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after worker death, sweep still byte-identical: %v\n", string(sharded3) == string(local3))
	st := coord.Cluster().Stats()
	fmt.Printf("dispatch: %d shards, %d served remotely, %d retries, %d fallbacks\n\n",
		st.Shards, st.Remote, st.Retries, st.Fallbacks)

	// 4. Coordinator crash + resume: submit an optimize job, then kill the
	// coordinator the unkind way — the WAL handle dies first (as in kill
	// -9, nothing after this instant persists), then the process state goes
	// away. The successor reopens the same directory and finishes the job.
	resp, err = http.Post(coordURL+"/api/v1/optimize?scenario=4b-quick&strategy=beam", "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted optimize job %s; killing the coordinator before it finishes ...\n", acc.ID)
	store.Close() // the kill moment: no later write lands
	stopCoord()
	coord.Close(context.Background())

	store2, err := jobs.OpenFileStore(stateDir)
	if err != nil {
		log.Fatal(err)
	}
	copts.JobStore = store2
	successor := server.New(copts)
	succURL, stopSucc, err := server.StartLocal(successor)
	if err != nil {
		log.Fatal(err)
	}
	defer stopSucc()
	defer successor.Close(context.Background())
	defer store2.Close()
	fmt.Printf("successor coordinator on %s resuming from %s\n", succURL, stateDir)

	for deadline := time.Now().Add(60 * time.Second); ; {
		body, err := fetch(succURL, "/api/v1/jobs/"+acc.ID)
		if err != nil {
			log.Fatal(err)
		}
		var snap struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			log.Fatal(err)
		}
		if snap.State == "done" {
			fmt.Printf("job %s resumed by the successor and finished: state=%s\n", acc.ID, snap.State)
			break
		}
		if snap.State == "failed" || snap.State == "cancelled" {
			log.Fatalf("job %s ended %s after restart: %s", acc.ID, snap.State, snap.Error)
		}
		if time.Now().After(deadline) {
			log.Fatalf("job %s stuck in state %s", acc.ID, snap.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
