module rog/bench

go 1.22

require rog v0.0.0

replace rog => ../
