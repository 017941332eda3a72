module github.com/vanetlab/relroute/bench

go 1.24

require github.com/vanetlab/relroute v0.0.0

replace github.com/vanetlab/relroute => ../
