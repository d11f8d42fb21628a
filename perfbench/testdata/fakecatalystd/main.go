// Command fakecatalystd stands in for catalystd in the benchmark's tests:
// it accepts catalystd's flags and answers every request with the wrong
// entity, so every correctness check fails.
package main

import (
	"flag"
	"net/http"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	flag.String("dir", ".", "ignored")
	flag.String("config", "", "ignored")
	flag.Bool("metrics", false, "ignored")
	flag.Parse()
	http.HandleFunc("/debug/catalystd", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"telemetry": {}}`))
	})
	http.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Etag", `"fake"`)
		w.Write([]byte("fake"))
	})
	if err := http.ListenAndServe(*addr, nil); err != nil {
		panic(err)
	}
}
