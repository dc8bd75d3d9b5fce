package cluster

// SetShardsPerWorker sets d's shard split for the external tests in this
// directory. It writes under mu, which Records takes to read the pool size
// before it reads the split, so a request served after the call sees it.
func SetShardsPerWorker(d *Dispatcher, n int) {
	d.mu.Lock()
	d.shardsPerWorker = n
	d.mu.Unlock()
}
