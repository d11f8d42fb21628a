// Crawler: CacheCatalyst outside the browser.
//
// The Service Worker is just one consumer of proactive validation tokens.
// Anything that re-fetches pages on a schedule — monitors, scrapers, search
// crawlers — pays the same revalidation round trips, and catalyst.Client
// removes them the same way: the page response's X-Etag-Config proves
// cached subresources current, so a repeat crawl touches the network once
// per page instead of once per resource.
//
// The example crawls a generated site twice and prints what the second
// pass cost.
//
//	go run ./examples/crawler
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"net/url"

	"cachecatalyst/catalyst"
	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/server"
	"cachecatalyst/internal/telemetry"
	"cachecatalyst/internal/vclock"
	"cachecatalyst/internal/webgen"
)

func main() {
	// Serve a realistic synthetic site with CacheCatalyst enabled. The
	// server and the client count into one registry.
	reg := telemetry.NewRegistry()
	clock := vclock.NewVirtual(vclock.Epoch)
	site := webgen.GenerateOne(webgen.Params{Sites: 1, Seed: 21, Scale: 0.5}, 0, clock)
	srv := server.New(site.Content(), server.Options{Catalyst: true, Clock: clock, Telemetry: reg})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := catalyst.NewClientWithOptions(nil, catalyst.ClientOptions{Telemetry: reg})

	crawl := func(label string) {
		before := reg.Snapshot().Counters
		page, err := client.Get(ts.URL + webgen.PagePath)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range htmlparse.ExtractFromHTML(string(page.Body)) {
			u, err := url.Parse(r.URL)
			if err != nil || u.Host != "" {
				continue // skip cross-origin in this demo
			}
			if _, err := client.Get(ts.URL + r.URL); err != nil {
				log.Fatal(err)
			}
		}
		after := reg.Snapshot().Counters
		delta := func(name string) int64 { return after[name] - before[name] }
		fmt.Printf("%-12s server saw %3d requests; client: %d from network, %d revalidated, %d zero-RTT cache hits\n",
			label,
			delta("server.requests"),
			delta("client.network_fetches"),
			delta("client.revalidations"),
			delta("client.local_hits"))
	}

	fmt.Printf("crawling %s (%d resources)\n\n", site.Host, site.NumResources())
	crawl("first pass:")
	crawl("second pass:")
	fmt.Println("\nThe second pass needs the page request (its 304 refreshes the map) plus")
	fmt.Println("fetches only for no-store content and resources that actually changed.")
}
