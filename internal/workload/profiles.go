// Package workload defines the containerized applications and load
// patterns of the paper's evaluation: the four Table II application
// profiles, the Wikipedia diurnal request pattern driving Fig. 9, the Azure
// container-count walk with correlated burstiness driving Fig. 10, the
// Solr/Hadoop calibration curves of Fig. 12, and the container-graph
// builders the schedulers consume.
package workload

import (
	"strconv"

	"goldilocks/internal/resources"
)

// AppProfile describes one containerized application: the per-container
// resource demand (the container-graph vertex weight) and the number of
// distinct flows per communicating container pair (the edge weight), both
// measured in the paper's testbed (Table II).
type AppProfile struct {
	Name string
	// Demand is the per-container resource demand at nominal load:
	// ⟨CPU % (may exceed 100 for multi-core apps), memory MB, Mbps⟩.
	Demand resources.Vector
	// FlowCount is the edge weight between a communicating pair.
	FlowCount float64
	// ServiceTimeMS is the mean per-request service time at the server,
	// calibrated from testbed micro-benchmarks; it anchors the task
	// completion time model.
	ServiceTimeMS float64
}

// The four Table II application profiles.
var (
	// TwitterCaching is the Memcached-backed Twitter content caching
	// workload (the paper's primary latency-sensitive application).
	TwitterCaching = AppProfile{
		Name:          "twitter-caching",
		Demand:        resources.New(33, 4*1024, 24),
		FlowCount:     4944,
		ServiceTimeMS: 1.0,
	}
	// WebSearch is the Apache Solr search engine.
	WebSearch = AppProfile{
		Name:          "web-search",
		Demand:        resources.New(32, 12*1024, 1),
		FlowCount:     50,
		ServiceTimeMS: 18.0,
	}
	// NaiveBayes is the Hadoop-hosted Naive Bayes classifier (CPU heavy,
	// multi-core: 376% CPU).
	NaiveBayes = AppProfile{
		Name:          "naive-bayes",
		Demand:        resources.New(376, 2*1024, 328),
		FlowCount:     2,
		ServiceTimeMS: 250.0,
	}
	// MediaStreaming is the Nginx media streaming service.
	MediaStreaming = AppProfile{
		Name:          "media-streaming",
		Demand:        resources.New(54, 57*1024, 320),
		FlowCount:     25,
		ServiceTimeMS: 5.0,
	}
)

// TableII lists the four profiles in the paper's order.
var TableII = []AppProfile{TwitterCaching, WebSearch, NaiveBayes, MediaStreaming}

// Container is one schedulable unit: an application instance hosted in a
// container (the paper uses Docker; the model is hypervisor-agnostic).
type Container struct {
	ID  int
	App AppProfile
	// Demand is the container's current resource demand; it starts at
	// the container's nominal demand and scales with offered load.
	Demand resources.Vector
	// Reserved is the resource allocation the service owner requested at
	// creation. It never scales with load — RC-Informed buckets on this,
	// which is exactly why its active-server count tracks population
	// rather than offered load (Fig. 13).
	Reserved resources.Vector
	// ReplicaGroup, when non-empty, marks containers that replicate the
	// same service: the graph builder links them with negative
	// anti-affinity edges so they land in different fault domains (§IV-C).
	ReplicaGroup string
	// Role distinguishes e.g. "frontend" from "cache" within one app.
	Role string
}

// Reservation returns the container's reserved allocation, falling back to
// the application profile when none was set explicitly.
func (c Container) Reservation() resources.Vector {
	if !c.Reserved.IsZero() {
		return c.Reserved
	}
	return c.App.Demand
}

// ScaleDemand returns a copy of the container with demand scaled by f
// (load factor relative to nominal). Memory does not scale: resident sets
// stay allocated regardless of request rate (as the paper observes for the
// 12 GB search index).
func (c Container) ScaleDemand(f float64) Container {
	scaled := c.Demand
	scaled[resources.CPU] *= f
	scaled[resources.Network] *= f
	c.Demand = scaled
	return c
}

// String identifies the container.
func (c Container) String() string {
	return c.App.Name + "-" + strconv.Itoa(c.ID)
}
