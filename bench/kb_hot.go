package main

import "strconv"

// runKBHot is the same endpoint and universe used the other way: Zipf
// (s = 1.1) draws, so the head fits the 128-entry query cache and most
// requests are answered without a build. The median is then serve-layer
// cost — cache lookup, singleflight, KB.Search, JSON encoding — and only
// the tail sees the pipeline. A cache change must show here and not on
// kb_cold; a pipeline change the reverse.
func runKBHot(r *run) error {
	names := r.wd.entityNames()
	r.draws("kb_hot.popularity").Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	clients := r.loadClients()
	draws := make([]*zipf, clients)
	for c := range draws {
		draws[c] = newZipf(r.draws("kb_hot.client"+strconv.Itoa(c)), 1.1, len(names))
	}
	return runKB(r, clients, func(c, _ int) string { return names[draws[c].next()] })
}
