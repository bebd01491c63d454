package main

// workloads are the benchmark's input sets; BENCHMARK.json gives the
// reason for each.
var workloads = []workloadSpec{
	{name: "agg-mix", setup: setupAgg("mix"), size: sizes{tokens: 2000, tuples: 4}},
	{name: "agg-lossy", setup: setupAgg("lossy"), size: sizes{tokens: 2000, tuples: 4}},
	{name: "fleet-tcp", setup: setupAgg("fleet"), size: sizes{tokens: 1000, tuples: 4}},
	// serve-hot runs below the host's shedding point: at 500 req/s a
	// burst behind a search-class reorganisation already sheds about 1
	// request in 6000, at 250 none did over 200 schedules.
	{name: "serve-hot", setup: setupServe, size: sizes{
		tenants: 100, arrivals: 20000, rate: 250, zipf: -1,
		ladderArrivals: 10000,
	}},
	{name: "serve-churn", setup: setupServe, size: sizes{
		tenants: 10000, arrivals: 40000, rate: 4000, zipf: 1.1,
		ladderArrivals: 8000,
	}},
}

// ladder are the serve rates slo_max_rps is read from. The steps are
// coarse on purpose: the met share falls gently with rate, so where a
// schedule crosses the budget moves by ±15% from seed to seed, and
// doubling steps keep that jitter between two rungs.
var ladder = []float64{250, 500, 1000, 2000, 4000, 8000, 16000}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
