module aurora/bench

go 1.23

require aurora v0.0.0

replace aurora => ../
